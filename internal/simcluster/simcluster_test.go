package simcluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/xpaxos"
)

const geo3 = `
name geo3
region us-east
region eu-west
region ap-south
local 500us jitter 200us
link us-east eu-west 40ms 42ms jitter 3ms
link us-east ap-south 90ms 92ms jitter 5ms
link eu-west ap-south 70ms 71ms jitter 4ms
`

// built records one member construction: the process and the node
// options (storage backend included) it was given.
type built struct {
	p    ids.ProcessID
	opts core.NodeOptions
}

func newTestCluster(t *testing.T, durable bool, topo *sim.BoundTopology) (*Cluster, *[]built) {
	t.Helper()
	var log []built
	c := New(Options{
		Config:   ids.MustConfig(4, 1),
		Sim:      sim.Options{Seed: 1},
		Topology: topo,
		Durable:  durable,
		New: func(p ids.ProcessID, opts core.NodeOptions) runtime.Node {
			log = append(log, built{p, opts})
			return core.NewNode(opts)
		},
	})
	t.Cleanup(c.Net.Close)
	return c, &log
}

// TestRestartKeepsBackend: a restarted member is constructed afresh
// over the very backend its predecessor wrote, and Running tracks the
// lifecycle.
func TestRestartKeepsBackend(t *testing.T) {
	c, log := newTestCluster(t, true, nil)
	if len(*log) != 4 {
		t.Fatalf("built %d members, want 4", len(*log))
	}
	first := (*log)[1]
	if first.p != 2 || first.opts.Storage == nil {
		t.Fatalf("p2 built without storage: %+v", first)
	}
	c.Net.Run(100 * time.Millisecond)
	c.Crash(2, true)
	if c.Running(2) || !c.Running(1) {
		t.Fatal("Running does not reflect the crash")
	}
	c.Restart(2)
	again := (*log)[4]
	if again.p != 2 || again.opts.Storage != first.opts.Storage {
		t.Fatalf("restart built %s over a different backend", again.p)
	}
	if !c.Running(2) {
		t.Fatal("restarted member not running")
	}
	if b := first.opts.Storage.(*storage.MemBackend); b.Crashes() != 1 {
		t.Fatalf("hard crash reached the backend %d times, want 1", b.Crashes())
	}
}

// TestNonDurableHasNoStorage: without Durable, members get no backend.
func TestNonDurableHasNoStorage(t *testing.T) {
	_, log := newTestCluster(t, false, nil)
	for _, b := range *log {
		if b.opts.Storage != nil {
			t.Fatalf("%s got storage in a non-durable cluster", b.p)
		}
	}
}

// TestTopologyScalesFD: on a WAN topology the failure detector's base
// timeout covers four worst one-way delays, and its maximum ten base
// timeouts; on the LAN band the defaults stand.
func TestTopologyScalesFD(t *testing.T) {
	topo, err := sim.ParseTopology(geo3)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := topo.Bind(4)
	if err != nil {
		t.Fatal(err)
	}
	_, log := newTestCluster(t, false, bound)
	fdo := (*log)[0].opts.FD
	if fdo.BaseTimeout != 4*bound.MaxOneWay() || fdo.MaxTimeout < 10*fdo.BaseTimeout {
		t.Fatalf("FD not scaled to %s one-way: base %s max %s", bound.MaxOneWay(), fdo.BaseTimeout, fdo.MaxTimeout)
	}
	_, lan := newTestCluster(t, false, nil)
	if got, want := (*lan)[0].opts.FD, core.DefaultNodeOptions().FD; got != want {
		t.Fatalf("LAN cluster changed FD options: %+v, want %+v", got, want)
	}
}

// TestScheduleHooks: plans play at their virtual times, each hook runs
// just before its action, and a plan without RestartAt stays down.
func TestScheduleHooks(t *testing.T) {
	c, _ := newTestCluster(t, true, nil)
	var seen []string
	c.Schedule([]Crash{
		{Proc: 2, At: 50 * time.Millisecond, RestartAt: 150 * time.Millisecond},
		{Proc: 3, At: 100 * time.Millisecond},
	}, func(pl Crash) {
		seen = append(seen, fmt.Sprintf("%s down, running=%v", pl.Proc, c.Running(pl.Proc)))
	}, func(pl Crash) {
		seen = append(seen, fmt.Sprintf("%s up, running=%v", pl.Proc, c.Running(pl.Proc)))
	})
	c.Net.Run(time.Second)
	want := "p2 down, running=true; p3 down, running=true; p2 up, running=false"
	if got := strings.Join(seen, "; "); got != want {
		t.Fatalf("hooks ran as %q, want %q", got, want)
	}
	if !c.Running(2) || c.Running(3) {
		t.Fatalf("after the plans: p2 running=%v p3 running=%v", c.Running(2), c.Running(3))
	}
}

// TestCheckHistories covers the slot-aligned comparison: a replica that
// skipped slots through a checkpoint agrees, while a different request,
// a different batch size or an out-of-order slot does not.
func TestCheckHistories(t *testing.T) {
	ex := func(slot, client uint64) xpaxos.Execution {
		return xpaxos.Execution{Slot: slot, Client: client, Seq: 1, Op: []byte("op")}
	}
	procs := []ids.ProcessID{1, 2}
	check := func(a, b []xpaxos.Execution) error {
		return CheckHistories(procs, func(p ids.ProcessID) []xpaxos.Execution {
			if p == 1 {
				return a
			}
			return b
		})
	}
	full := []xpaxos.Execution{ex(1, 7), ex(2, 8), ex(2, 9), ex(3, 10)}
	if err := check(full, full[3:]); err != nil {
		t.Fatalf("checkpoint catch-up flagged: %v", err)
	}
	for name, tc := range map[string]struct {
		b    []xpaxos.Execution
		want string
	}{
		"request": {[]xpaxos.Execution{ex(1, 6)}, "histories diverge at slot 1: p1 executed client=7 seq=1, p2 executed client=6 seq=1"},
		"batch":   {[]xpaxos.Execution{ex(2, 8)}, "histories diverge at slot 2: p1 executed 2 requests, p2 executed 1"},
		"order":   {[]xpaxos.Execution{ex(3, 10), ex(2, 8)}, "p2 executed slot 2 after slot 3 (out of order)"},
	} {
		if err := check(full, tc.b); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %q", name, err, tc.want)
		}
	}
}

// TestExecuted counts distinct sequence numbers of one client on the
// best replica.
func TestExecuted(t *testing.T) {
	h := map[ids.ProcessID][]xpaxos.Execution{
		1: {{Client: 5, Seq: 1}},
		2: {{Client: 5, Seq: 1}, {Client: 5, Seq: 1}, {Client: 5, Seq: 2}, {Client: 6, Seq: 3}},
	}
	history := func(p ids.ProcessID) []xpaxos.Execution { return h[p] }
	if n, p := Executed([]ids.ProcessID{1, 2}, history, 5); n != 2 || p != 2 {
		t.Fatalf("Executed = %d on %s, want 2 on p2", n, p)
	}
	if n, p := Executed([]ids.ProcessID{1, 2}, history, 9); n != 0 || p != 1 {
		t.Fatalf("Executed of an unknown client = %d on %s, want 0 on p1", n, p)
	}
}
