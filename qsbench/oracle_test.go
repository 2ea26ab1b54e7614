package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/load"
)

func TestKVModel(t *testing.T) {
	m := newKVModel()
	steps := []struct{ op, want string }{
		{"get a", "NIL"},
		{"set a 1", "OK"},
		{"append a 2", "OK"},
		{"get a", "12"},
		{"append b x", "OK"},
		{"get b", "x"},
		{"set a with spaces", "OK"},
		{"get a", "with spaces"},
		{"del a", "OK"},
		{"get a", "NIL"},
		{"noop", "ECHO noop"},
	}
	for _, s := range steps {
		if got := m.apply(s.op); got != s.want {
			t.Fatalf("%q = %q, want %q", s.op, got, s.want)
		}
	}
	// A wrong get result must not match the model's.
	m.apply("set k v1")
	if hashResult([]byte(m.apply("get k"))) == hashResult([]byte("v0")) {
		t.Fatal("model accepted a stale get result")
	}
}

// matrix builds a suspicion matrix where each pair (l,k) means l
// suspected k in the given epoch.
func matrix(n int, epoch uint64, pairs ...[2]int) [][]uint64 {
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	for _, p := range pairs {
		m[p[0]-1][p[1]-1] = epoch
	}
	return m
}

func TestLexFirstIndependentSet(t *testing.T) {
	cases := []struct {
		name  string
		n, q  int
		epoch uint64
		m     [][]uint64
		want  []int
		ok    bool
	}{
		{"no suspicions", 4, 3, 1, matrix(4, 1), []int{1, 2, 3}, true},
		{"1 suspects 2", 4, 3, 1, matrix(4, 1, [2]int{1, 2}), []int{1, 3, 4}, true},
		{"star on 2", 7, 5, 1, matrix(7, 1, [2]int{1, 2}, [2]int{3, 2}, [2]int{4, 2}), []int{1, 3, 4, 5, 6}, true},
		{"old epoch ignored", 4, 3, 2, matrix(4, 1, [2]int{1, 2}), []int{1, 2, 3}, true},
		// Only a later choice for the first member completes the set.
		{"backtrack", 4, 3, 1, matrix(4, 1, [2]int{1, 2}, [2]int{1, 3}), []int{2, 3, 4}, true},
		{"none", 4, 3, 1, matrix(4, 1, [2]int{1, 2}, [2]int{3, 4}), nil, false},
	}
	for _, c := range cases {
		got, ok := lexFirstIndependentSet(suspectAdjacency(c.m, c.epoch), c.q)
		if ok != c.ok || !equalInts(got, c.want) {
			t.Errorf("%s: got %v %v, want %v %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestVerifyQuorumRejects(t *testing.T) {
	adj := suspectAdjacency(matrix(7, 1, [2]int{2, 5}), 1)
	if err := verifyQuorum(adj, 5, []int{1, 2, 3, 4, 6}); err != nil {
		t.Fatalf("lexicographically-first quorum rejected: %v", err)
	}
	bad := map[string][]int{
		"suspected pair": {1, 2, 3, 4, 5},
		"not first":      {1, 3, 4, 5, 6},
		"wrong size":     {1, 2, 3, 4},
	}
	for name, q := range bad {
		if err := verifyQuorum(adj, 5, q); err == nil {
			t.Errorf("%s: %v accepted", name, q)
		}
	}
}

func TestQuorumMembers(t *testing.T) {
	q := ids.NewQuorum([]ids.ProcessID{1, 3, 12})
	got := quorumMembers(q.String())
	if len(got) != 3 || !got["p1"] || !got["p3"] || !got["p12"] || got["p2"] {
		t.Fatalf("quorumMembers(%q) = %v", q.String(), got)
	}
	q.Leader = 3
	if got := quorumMembers(q.String()); len(got) != 3 || !got["p12"] {
		t.Fatalf("quorumMembers(%q) = %v", q.String(), got)
	}
	if got := quorumMembers("epoch 4"); got != nil {
		t.Fatalf("a detail without a quorum read as %v", got)
	}
}

func TestBounds(t *testing.T) {
	for _, c := range []struct{ f, t3, t4, t9, c10 int }{
		{1, 2, 3, 4, 8},
		{2, 6, 6, 7, 14},
		{10, 110, 66, 31, 62},
	} {
		if theorem3Bound(c.f) != c.t3 || theorem4Bound(c.f) != c.t4 ||
			theorem9Bound(c.f) != c.t9 || corollary10Bound(c.f) != c.c10 {
			t.Errorf("f=%d: bounds %d %d %d %d", c.f, theorem3Bound(c.f), theorem4Bound(c.f),
				theorem9Bound(c.f), corollary10Bound(c.f))
		}
	}
	if err := checkAlgorithm1(10, 65, 66); err != nil {
		t.Errorf("within bounds rejected: %v", err)
	}
	if checkAlgorithm1(10, 111, 66) == nil {
		t.Error("Algorithm 1 above f(f+1) per epoch accepted")
	}
	if checkAlgorithm1(10, 65, 65) == nil {
		t.Error("Algorithm 1 short of C(f+2,2) proposals accepted")
	}
	if err := checkFollowerSelection(10, 20, 20); err != nil {
		t.Errorf("within bounds rejected: %v", err)
	}
	if checkFollowerSelection(10, 32, 32) == nil {
		t.Error("Follower Selection above 3f+1 per epoch accepted")
	}
	if checkFollowerSelection(10, 31, 63) == nil {
		t.Error("Follower Selection above 6f+2 in total accepted")
	}
}

const geo3 = `# comment
name geo3
region us-east
region eu-west
region ap-south
local 500us jitter 200us
link us-east eu-west 40ms 42ms jitter 3ms
link us-east ap-south 90ms 92ms jitter 5ms
link eu-west ap-south 70ms 71ms jitter 4ms
`

func TestLatencyFloor(t *testing.T) {
	// Three processes, one region each, quorums of two: the replica in
	// eu-west needs only the prepare from a us-east leader and its own
	// commit, 40 ms.
	delay, err := topologyDelays(geo3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f := latencyFloor(3, 2, delay); math.Abs(f-40) > 1e-9 {
		t.Fatalf("floor %v, want 40", f)
	}
	// Seven processes over the regions (3, 2, 2) with quorums of five:
	// the best replica waits for a commit that crossed the us-east to
	// eu-west link plus one local hop.
	delay, err = topologyDelays(geo3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if f := latencyFloor(7, 5, delay); math.Abs(f-40.5) > 1e-9 {
		t.Fatalf("floor %v, want 40.5", f)
	}
	// The default quorum p1..p5 led by p1 (us-east) includes p3 in
	// ap-south: the fastest replica, p3 itself, waits for the commits of
	// the eu-west members, 40 + 70 ms.
	if f := quorumFloor(1, []int{1, 2, 3, 4, 5}, delay); math.Abs(f-110) > 1e-9 {
		t.Fatalf("default-quorum floor %v, want 110", f)
	}
	// Latencies below either floor must fail the geo check.
	floors := geoFloors{any: 40.5, initial: 110}
	o := newOutcome()
	checkFloor(o, 39.9, nil, floors, time.Second)
	if o.failed == 0 {
		t.Fatal("run p50 below the floor accepted")
	}
	o = newOutcome()
	checkFloor(o, 120, []load.BucketStat{{StartS: 0.5, Completed: 3, P50Ms: 100}}, floors, time.Second)
	if o.failed == 0 {
		t.Fatal("pre-crash bucket below the default-quorum floor accepted")
	}
	o = newOutcome()
	checkFloor(o, 120, []load.BucketStat{{StartS: 1.5, Completed: 3, P50Ms: 100}}, floors, time.Second)
	if o.failed != 0 {
		t.Fatal("post-crash bucket above the any-quorum floor rejected")
	}
	if _, err := topologyDelays("link a b 1ms\n", 3); err == nil {
		t.Fatal("topology without regions accepted")
	}
}

func TestRecoveryMs(t *testing.T) {
	// Baseline p99 is 100 ms; after a crash at 1s the tail is back under
	// 150 ms in the bucket starting at 1.3s, which ends at 1.35s.
	var tl []load.BucketStat
	for i := 0; i < 40; i++ {
		start := float64(i) * 0.05
		p99 := 100.0
		if start >= 1.0 && start < 1.3 {
			p99 = 900
		}
		if start >= 1.6 && start < 1.7 {
			p99 = 900 // a later fault is ignored
		}
		tl = append(tl, load.BucketStat{StartS: start, Completed: 10, P99Ms: p99})
	}
	if got := recoveryMs(tl, 1e9); math.Abs(got-350) > 1e-6 {
		t.Fatalf("recovery %v ms, want 350", got)
	}
	for i := range tl {
		if tl[i].StartS >= 1.0 {
			tl[i].P99Ms = 900
		}
	}
	if got := recoveryMs(tl, 1e9); got != 0 {
		t.Fatalf("recovery %v ms reported for a run that never recovered", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBenchmarkFile keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	compare := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %s: listed unit %q, printed %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
		if len(listed) != len(units) {
			t.Errorf("%d %s metrics listed, %d printed", len(listed), kind, len(units))
		}
	}
	compare("end-to-end", spec.EndToEnd, e2eUnits)
	compare("per-layer", spec.PerLayer, layerUnits)
}
