package load

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"quorumselect/internal/sim"
)

// geoCrashOptions is the pinned geo-failover shape: open-loop Poisson
// load on seven processes spread over the geo3 WAN, with the initial
// leader p1 hard-crashed at 2s and restarted from its WAL at 5s.
func geoCrashOptions(t testing.TB, seed int64) SimOptions {
	t.Helper()
	topo, err := sim.LoadTopology(filepath.Join("..", "..", "examples", "topologies", "geo3.topo"))
	if err != nil {
		t.Fatal(err)
	}
	bound, err := topo.Bind(7)
	if err != nil {
		t.Fatal(err)
	}
	return SimOptions{
		N:           7,
		Arrivals:    &Poisson{R: 200},
		Keys:        &ZipfKeys{N: 1000, S: 1.1},
		Seed:        seed,
		Duration:    7 * time.Second,
		Topology:    bound,
		Crashes:     []Crash{{Proc: 1, At: 2 * time.Second, RestartAt: 5 * time.Second, Hard: true}},
		FaultDesc:   "hard crash p1 at 2s, restart at 5s",
		FaultAt:     2 * time.Second,
		BucketWidth: 250 * time.Millisecond,
	}
}

// TestRunSimGolden pins the exact summary JSON of one seeded geo3
// crash-restart run, so a refactor of the simulated cluster underneath
// RunSim must reproduce it byte for byte (regenerate with
// UPDATE_GOLDEN=1 only for an intended behaviour change).
func TestRunSimGolden(t *testing.T) {
	s, err := RunSim(geoCrashOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	checkGolden(t, filepath.Join("testdata", "runsim_geo3_crash.golden.json"), got)
}

// checkGolden compares got with the golden file, rewriting the file
// first when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("output drifted from golden file %s (%d vs %d bytes); "+
			"regenerate with UPDATE_GOLDEN=1 if the change is intentional:\n%s",
			path, len(got), len(want), got)
	}
}

// TestRunSimRestartedLeaderNotRouted: a leader restarted from its WAL
// still claims leadership of the view it crashed in. New requests must
// go to the leader of the current view, so the bucket right after the
// restart keeps its tail well below one retry period instead of waiting
// at the stale claimant for the retry.
func TestRunSimRestartedLeaderNotRouted(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		opts := geoCrashOptions(t, seed)
		s, err := RunSim(opts)
		if err != nil {
			t.Fatal(err)
		}
		restart := opts.Crashes[0].RestartAt.Seconds()
		var found bool
		for _, b := range s.Timeline {
			if b.StartS != restart {
				continue
			}
			found = true
			if limit := ms(time.Second) / 2; b.P99Ms >= limit { // half the default RetryEvery
				t.Errorf("seed %d: bucket at the %.0fs restart has p99 %.1fms, want below %.0fms (RetryEvery/2)",
					seed, restart, b.P99Ms, limit)
			}
		}
		if !found {
			t.Fatalf("seed %d: no timeline bucket starts at the %.0fs restart", seed, restart)
		}
	}
}
