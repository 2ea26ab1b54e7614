package chaos

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"quorumselect/internal/sim"
)

// The replay goldens pin the exact dumps of three seeded runs — one per
// scenario family — so a change to the simulated cluster underneath
// them must reproduce every byte (regenerate with UPDATE_GOLDEN=1 only
// for an intended behaviour change).

// TestReplayGoldenCrashRestartGeo3 pins an xpaxos crash-restart seed on
// the geo3 WAN, where the leader p1 hard-crashes and recovers from its
// WAL: topology binding, FD scaling, crash and restart all feed the
// dump.
func TestReplayGoldenCrashRestartGeo3(t *testing.T) {
	topo, err := sim.LoadTopology(filepath.Join("..", "..", "examples", "topologies", "geo3.topo"))
	if err != nil {
		t.Fatal(err)
	}
	bound, err := topo.Bind(4)
	if err != nil {
		t.Fatal(err)
	}
	dump, flight, v := ReplayDump(Config{
		Protocol: ProtocolXPaxos,
		Faults:   []FaultClass{FaultCrashRestart},
		Topology: bound,
	}, 1)
	if v != nil {
		t.Fatalf("unexpected violation:\n%s", v.Dump)
	}
	// The text dump keeps only stream tails; the flight dump's digest
	// pins every retained span and event of the run.
	dump += fmt.Sprintf("flight sha256=%x\n", sha256.Sum256(flight))
	checkGolden(t, "replay_xpaxos_crash_restart_geo3.golden", dump)
}

// TestReplayGoldenSharded pins the sharded-partition dump of seed 11.
func TestReplayGoldenSharded(t *testing.T) {
	dump, v := ReplaySharded(ShardedConfig{}, 11)
	if v != nil {
		t.Fatalf("unexpected violation:\n%s", v.Dump)
	}
	checkGolden(t, "replay_sharded.golden", dump)
}

// TestReplayGoldenUnsafeSpec pins the forced unsafe-spec dump of seed
// 9, the fork included.
func TestReplayGoldenUnsafeSpec(t *testing.T) {
	dump, v := ReplayUnsafeSpec(UnsafeSpecConfig{Force: true}, 9)
	if v == nil {
		t.Fatal("forced unsafe spec did not fork the log")
	}
	checkGolden(t, "replay_unsafe_spec.golden", dump)
}

// checkGolden compares got with testdata/name, rewriting the file first
// when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("dump drifted from golden file %s (%d vs %d bytes); "+
			"regenerate with UPDATE_GOLDEN=1 if the change is intentional:\n%s",
			path, len(got), len(want), tail(got))
	}
}
