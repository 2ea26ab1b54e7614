// Package simcluster is the one simulated-cluster harness: it builds a
// seeded sim.Network of composed members, binds a WAN topology to it,
// keeps each member's durable storage across crash and restart, and
// offers the checks and dumps the scenario drivers share. The chaos
// scenarios and load.RunSim are its callers; each supplies only a
// member constructor and its scenario script.
package simcluster

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/xpaxos"
)

// dumpEvents bounds the event tail a replay dump prints: the tail is
// what localizes a violation; an unbounded dump would bury it.
const dumpEvents = 200

// Options configures a cluster.
type Options struct {
	Config ids.Config
	// Sim configures the network except its latency, which is the
	// 2–12ms LAN band or, given a Topology, the topology's model; the
	// topology's partition windows run before Sim.Filter.
	Sim      sim.Options
	Topology *sim.BoundTopology
	// Durable gives every member a storage backend that survives its
	// crashes: the only state a restarted member inherits.
	Durable bool
	// New composes p's member. opts carries the standard node options
	// with failure-detector timeouts scaled to the topology and, for a
	// durable cluster, p's storage backend. It runs once per process at
	// build time and again on every restart.
	New func(p ids.ProcessID, opts core.NodeOptions) runtime.Node
}

// Crash is one scheduled crash of a process and its optional restart.
type Crash struct {
	Proc ids.ProcessID
	// At is when the process goes down; RestartAt (0 = never, else
	// after At) is when it comes back, recovering from its durable
	// storage.
	At, RestartAt time.Duration
	// Hard models power loss: writes not yet synced are lost.
	Hard bool
}

// Cluster is one simulated system: the network and its members'
// lifecycle.
type Cluster struct {
	Net      *sim.Network
	newNode  func(ids.ProcessID, core.NodeOptions) runtime.Node
	nodeOpts core.NodeOptions
	backends map[ids.ProcessID]*storage.MemBackend
	running  map[ids.ProcessID]bool
}

// New builds every member and wires them into a seeded network.
func New(o Options) *Cluster {
	c := &Cluster{
		newNode:  o.New,
		nodeOpts: core.DefaultNodeOptions(),
		backends: make(map[ids.ProcessID]*storage.MemBackend, o.Config.N),
		running:  make(map[ids.ProcessID]bool, o.Config.N),
	}
	so := o.Sim
	so.Latency = sim.UniformLatency(2*time.Millisecond, 12*time.Millisecond)
	if t := o.Topology; t != nil {
		so.Latency = t.LatencyModel()
		// A WAN link slower than the LAN-tuned failure detector would
		// turn every heartbeat into a false suspicion.
		fdo := &c.nodeOpts.FD
		if oneWay := t.MaxOneWay(); 4*oneWay > fdo.BaseTimeout {
			fdo.BaseTimeout = 4 * oneWay
			fdo.MaxTimeout = max(fdo.MaxTimeout, 10*fdo.BaseTimeout)
		}
		if lf := t.LinkFilter(); lf != nil {
			so.Filter = sim.ChainFilters(lf, so.Filter)
		}
	}
	nodes := make(map[ids.ProcessID]runtime.Node, o.Config.N)
	for _, p := range o.Config.All() {
		if o.Durable {
			c.backends[p] = storage.NewMemBackend()
		}
		nodes[p] = c.member(p)
	}
	c.Net = sim.NewNetwork(o.Config, nodes, so)
	return c
}

// member composes p over its storage backend, if any, and marks it
// running.
func (c *Cluster) member(p ids.ProcessID) runtime.Node {
	opts := c.nodeOpts
	if b := c.backends[p]; b != nil {
		opts.Storage = b
	}
	c.running[p] = true
	return c.newNode(p, opts)
}

// Running reports whether p is up (not crashed).
func (c *Cluster) Running(p ids.ProcessID) bool { return c.running[p] }

// Crash takes p down. A hard crash models power loss: the backend
// drops every write that was not durably synced before the process
// stops. A plain crash is a process kill whose final flush still
// reaches disk.
func (c *Cluster) Crash(p ids.ProcessID, hard bool) {
	if b := c.backends[p]; hard && b != nil {
		b.Crash()
	}
	c.running[p] = false
	c.Net.StopProcess(p)
}

// Restart brings p back as a freshly constructed member over its old
// storage backend. A member without storage comes back with total
// amnesia.
func (c *Cluster) Restart(p ids.ProcessID) {
	c.Net.ReplaceProcess(p, c.member(p))
}

// Schedule plays the crash plans on the virtual clock. onCrash and
// onRestart, when non-nil, run just before each crash and restart.
func (c *Cluster) Schedule(plans []Crash, onCrash, onRestart func(Crash)) {
	for _, plan := range plans {
		plan := plan
		c.Net.At(plan.At, func() {
			if onCrash != nil {
				onCrash(plan)
			}
			c.Crash(plan.Proc, plan.Hard)
		})
		if plan.RestartAt > plan.At {
			c.Net.At(plan.RestartAt, func() {
				if onRestart != nil {
					onRestart(plan)
				}
				c.Restart(plan.Proc)
			})
		}
	}
}

// WriteEvents appends the tail of the run's protocol event stream to
// a dump.
func (c *Cluster) WriteEvents(b *strings.Builder) {
	evs := c.Net.Events().Events()
	if len(evs) > dumpEvents {
		evs = evs[len(evs)-dumpEvents:]
	}
	fmt.Fprintf(b, "events (last %d):\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(b, "  %s\n", e)
	}
}

// History returns a process's replicated history.
type History func(p ids.ProcessID) []xpaxos.Execution

// CheckHistories verifies cross-replica history agreement: each
// replica executes in non-decreasing slot order (a batched slot
// executes one entry per request), and any slot executed by two
// replicas carries the same requests and results. Alignment is by
// slot, not list index: a replica that caught up through a checkpoint
// transfer legitimately skips the slots the checkpoint subsumes.
func CheckHistories(procs []ids.ProcessID, history History) error {
	hists := make([][]xpaxos.Execution, len(procs))
	for i, p := range procs {
		h := history(p)
		for k := 1; k < len(h); k++ {
			if h[k].Slot < h[k-1].Slot {
				return fmt.Errorf("%s executed slot %d after slot %d (out of order)",
					p, h[k].Slot, h[k-1].Slot)
			}
		}
		hists[i] = h
	}
	for i := 0; i < len(procs); i++ {
		for j := i + 1; j < len(procs); j++ {
			a, b := hists[i], hists[j]
			for x, y := 0, 0; x < len(a) && y < len(b); {
				if a[x].Slot < b[y].Slot {
					x++
					continue
				}
				if a[x].Slot > b[y].Slot {
					y++
					continue
				}
				s := a[x].Slot
				x2, y2 := x, y
				for x2 < len(a) && a[x2].Slot == s {
					x2++
				}
				for y2 < len(b) && b[y2].Slot == s {
					y2++
				}
				if x2-x != y2-y {
					return fmt.Errorf("histories diverge at slot %d: %s executed %d requests, %s executed %d",
						s, procs[i], x2-x, procs[j], y2-y)
				}
				for k := 0; k < x2-x; k++ {
					ea, eb := a[x+k], b[y+k]
					if ea.Client != eb.Client || ea.Seq != eb.Seq ||
						!bytes.Equal(ea.Op, eb.Op) || !bytes.Equal(ea.Result, eb.Result) {
						return fmt.Errorf(
							"histories diverge at slot %d: %s executed client=%d seq=%d, %s executed client=%d seq=%d",
							s, procs[i], ea.Client, ea.Seq, procs[j], eb.Client, eb.Seq)
					}
				}
				x, y = x2, y2
			}
		}
	}
	return nil
}

// Executed returns how many distinct sequence numbers of the client
// the best replica executed, and that replica (the first process when
// none executed any): system progress, not every replica's, since a
// non-quorum replica may legitimately trail.
func Executed(procs []ids.ProcessID, history History, client uint64) (int, ids.ProcessID) {
	best, bestProc := -1, ids.ProcessID(0)
	for _, p := range procs {
		seen := make(map[uint64]bool)
		for _, e := range history(p) {
			if e.Client == client {
				seen[e.Seq] = true
			}
		}
		if len(seen) > best {
			best, bestProc = len(seen), p
		}
	}
	return max(best, 0), bestProc
}
