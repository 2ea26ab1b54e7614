package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/core"
	"quorumselect/internal/follower"
	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// selection-scale: Algorithm 1 converging after a crash (experiment
// E12's setting) twice — a seed-chosen default-quorum member at n=128,
// and p1 at n=64 — then Algorithm 1 under the §VII-B adversary and
// Follower Selection under the leader-targeting adversary of §IX, both
// at f=10. One round runs the four scenarios; a pass repeats rounds
// with the same inputs until its time is up, and every repeat must
// reproduce the first round's virtual-time results exactly.
//
// The seed-chosen crash runs at n=128 rather than n=256: at n=256 the
// UPDATE storm keeps about 590 MB live (1.1 GB peak resident), which a
// benchmark host sharing its memory cannot be relied on to give.
// Crashing p1 costs far more than crashing any other member (about n³
// UPDATEs instead of about 2n²: 694k against 33k at n=128, with 1 GB
// live), so it is not left to the seed, which would make one seed in
// q-1 a different workload: it is a scenario of every round, at n=64,
// where it sends about ten times the UPDATEs of another member's crash
// and keeps about 90 MB live.
const (
	scaleN    = 128
	scaleF    = 42
	firstN    = 64
	firstF    = 21
	scaleHB   = 25 * time.Millisecond
	churnF    = 10
	scenarios = 4
	// scaleSetups extra n=128 clusters are built per pass to sample
	// set-up time.
	scaleSetups = 2
	crashAtMin  = 60 * time.Millisecond
	// crashJitter spreads the crash instant over part of a heartbeat
	// period, so each seed detects it after a slightly different wait.
	crashJitter = 3 * time.Millisecond
)

// crashRun is what one crash scenario produced.
type crashRun struct {
	n         int
	crashed   ids.ProcessID
	setup     time.Duration // building the cluster
	wall      time.Duration // the scenario, set-up included, heap probe excluded
	adoptMs   []float64     // per correct process: crash → quorum without it
	converge  float64       // crash → every correct process agrees
	quorum    []ids.ProcessID
	updBytes  int64
	isetUs    float64
	heapBytes uint64
}

// selRound is what one round of the four scenarios produced.
type selRound struct {
	scale    crashRun // seed-chosen member at n=128
	first    crashRun // p1 at n=64
	wall     time.Duration
	qsMax    int
	qsIssued int
	fsMax    int
	fsIssued int
	// regs: the two crash scenarios, then the Algorithm 1 and the
	// Follower Selection adversaries.
	regs     [scenarios]*metrics.Registry
	lineUs   float64
	failures []string
}

func (r *selRound) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// signature is the part of a round that must repeat exactly.
func (r *selRound) signature() string {
	return fmt.Sprintf("crashed=%d converge=%.6f adopt=%v quorum=%v first: converge=%.6f adopt=%v quorum=%v qs=%d/%d fs=%d/%d upd=%d/%d",
		r.scale.crashed, r.scale.converge, r.scale.adoptMs, r.scale.quorum,
		r.first.converge, r.first.adoptMs, r.first.quorum,
		r.qsMax, r.qsIssued, r.fsMax, r.fsIssued,
		r.regs[0].Counter("msg.sent.UPDATE"), r.regs[1].Counter("msg.sent.UPDATE"))
}

func runSelection(p params, traced bool) (*outcome, error) {
	o := newOutcome()
	// Set-up is also measured on clusters that are built and closed at
	// once, so every pass has several set-up samples.
	var setups []float64
	for i := 0; i < scaleSetups; i++ {
		t0 := time.Now()
		net, _ := buildCrashCluster(scaleN, scaleF, p.seed, metrics.NewRegistry(), nil)
		setups = append(setups, time.Since(t0).Seconds())
		net.Close()
	}
	t := startTrace(traced)
	var rounds []*selRound
	end := deadline(p)
	for len(rounds) == 0 || time.Now().Before(end) {
		r := selectionRound(p.seed, traced)
		rounds = append(rounds, r)
		o.attempted += scenarios
		for _, f := range r.failures {
			o.fail("round %d: %s", len(rounds), f)
		}
		if len(rounds) > 1 && r.signature() != rounds[0].signature() {
			o.fail("round %d differs from round 1 under the same seed:\n  %s\n  %s",
				len(rounds), r.signature(), rounds[0].signature())
		}
	}
	prof := t.stop()

	first := rounds[0]
	var walls []float64
	for _, r := range rounds {
		setups = append(setups, r.scale.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
	}
	wall := median(walls)
	adopt := append(append([]float64(nil), first.scale.adoptMs...), first.first.adoptMs...)
	sort.Float64s(adopt)
	o.e2e["setup_s"] = median(setups)
	o.e2e["throughput_per_s"] = scenarios / wall
	o.e2e["p50_ms"] = quantileSorted(adopt, 50)
	o.e2e["p99_ms"] = quantileSorted(adopt, 99)
	if !traced {
		o.e2e["heap_retained_mb"] = float64(max(first.scale.heapBytes, first.first.heapBytes)) / (1 << 20)
	}
	o.notes = append(o.notes, fmt.Sprintf("rounds=%d", len(rounds)))
	for i, c := range []crashRun{first.scale, first.first} {
		o.notes = append(o.notes,
			fmt.Sprintf("n=%d: crashed=%s  converge_ms=%.3f (all %d correct processes agree)  UPDATEs=%d  live heap %.1f MB",
				c.n, c.crashed, c.converge, len(c.adoptMs), first.regs[i].Counter("msg.sent.UPDATE"), float64(c.heapBytes)/(1<<20)),
			fmt.Sprintf("quorum at n=%d: size %d, matches the lexicographically-first independent set", c.n, len(c.quorum)))
	}
	o.notes = append(o.notes,
		fmt.Sprintf("selection_wall_s per round=%.4f", walls),
		fmt.Sprintf("Algorithm 1 f=%d: max/epoch %d (f(f+1)=%d), proposed %d (C(f+2,2)=%d)",
			churnF, first.qsMax, theorem3Bound(churnF), first.qsIssued+1, theorem4Bound(churnF)),
		fmt.Sprintf("Follower Selection f=%d: max/epoch %d (3f+1=%d), total %d (6f+2=%d)",
			churnF, first.fsMax, theorem9Bound(churnF), first.fsIssued, corollary10Bound(churnF)))
	for i, reg := range first.regs {
		o.counts[fmt.Sprintf("scenario%d.msg.sent.total", i)] = reg.Counter("msg.sent.total")
	}
	if traced {
		ops := float64(o.attempted)
		prof.addLayers(o.layer, ops)
		scale := first.regs[0]
		o.layer["converge_ms"] = first.scale.converge
		o.layer["fd.expectations_per_op"] = float64(sumCounter(first.regs[:], "fd.expectation.issued")) / scenarios
		o.layer["fd.suspicions"] = float64(sumCounter(first.regs[:], "fd.suspicion.raised"))
		o.layer["fd.detect.ms"] = histMean(scale, "fd.detection.latency.seconds") * 1e3
		o.layer["suspicion.update.msgs"] = float64(sumCounter(first.regs[:], "msg.sent.UPDATE"))
		o.layer["suspicion.update.bytes"] = float64(first.scale.updBytes + first.first.updBytes)
		o.layer["core.quorum.update.us"] = histMean(scale, "core.quorum.update.seconds") * 1e6
		o.layer["core.quorums_issued"] = float64(sumCounter(first.regs[:3], "core.quorum.issued"))
		o.layer["follower.quorums_issued"] = float64(first.regs[3].Counter("follower.quorum.issued"))
		o.layer["graph.first_iset.us"] = first.scale.isetUs
		o.layer["graph.max_line.us"] = first.lineUs
		o.layer["sim.msgs_per_op"] = float64(sumCounter(first.regs[:], "msg.sent.total")) / scenarios
	}
	return o, nil
}

func selectionRound(seed int64, traced bool) *selRound {
	r := &selRound{}
	for i := range r.regs {
		r.regs[i] = metrics.NewRegistry()
	}
	rng := rand.New(rand.NewSource(seed))
	// The seed picks the crashed member among p2..pq; p1 has its own
	// scenario.
	q := ids.MustConfig(scaleN, scaleF).Q()
	crashed := ids.ProcessID(2 + rng.Intn(q-1))
	crashAt := func() time.Duration { return crashAtMin + time.Duration(rng.Int63n(int64(crashJitter))) }
	r.scale = crashScenario(r, scaleN, scaleF, crashed, crashAt(), seed, r.regs[0], traced)
	r.first = crashScenario(r, firstN, firstF, 1, crashAt(), seed, r.regs[1], traced)
	start := time.Now()
	adversaryChurn(r, seed)
	r.wall = r.scale.wall + r.first.wall + time.Since(start)
	return r
}

// buildCrashCluster builds and starts an n-process cluster: heartbeats
// every 25 ms and a constant 2 ms link delay, as in experiment E12.
func buildCrashCluster(n, f int, seed int64, reg *metrics.Registry, filter sim.Filter) (*sim.Network, map[ids.ProcessID]*core.Node) {
	cfg := ids.MustConfig(n, f)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = scaleHB
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	cores := make(map[ids.ProcessID]*core.Node, n)
	for _, p := range cfg.All() {
		node := core.NewNode(opts)
		nodes[p], cores[p] = node, node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{
		Seed:    seed,
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  filter,
		Metrics: reg,
	})
	return net, cores
}

// crashScenario crashes one default-quorum member of an n-process
// cluster at crashAt and runs until every correct process has adopted a
// quorum without it and all agree on one quorum.
func crashScenario(r *selRound, n, f int, crashed ids.ProcessID, crashAt time.Duration, seed int64, reg *metrics.Registry, traced bool) crashRun {
	c := crashRun{n: n, crashed: crashed}
	cfg := ids.MustConfig(n, f)
	q := cfg.Q()

	setupStart := time.Now()
	counter := newByteCounter(wire.TypeUpdate)
	var filter sim.Filter
	if traced {
		filter = counter
	}
	net, nodes := buildCrashCluster(n, f, seed, reg, filter)
	c.setup = time.Since(setupStart)
	live := make([]*core.Node, 0, n-1)
	for _, p := range cfg.All() {
		if p != crashed {
			live = append(live, nodes[p])
		}
	}
	defer net.Close()

	net.Run(crashAt)
	net.StopProcess(crashed)
	// Every quorum a process issues is published on the event bus with
	// its virtual time and members; the first one without the crashed
	// process is when that process recovered.
	index := make(map[ids.ProcessID]int, len(live))
	for i, node := range live {
		index[node.Env().ID()] = i
	}
	adopted := make([]time.Duration, len(live))
	pending := len(live)
	limit := crashAt + 2*time.Minute
	bus := net.Events()
	seen := bus.Total()
	for steps := 1; pending > 0 && net.Now() < limit; steps++ {
		if !net.Step() {
			break
		}
		if steps%16 != 0 || bus.Total() == seen {
			continue
		}
		events, missed := bus.Since(seen)
		if missed > 0 {
			r.failf("n=%d: event bus dropped %d events", n, missed)
			return c
		}
		seen += uint64(len(events))
		for _, ev := range events {
			i, ok := index[ev.Node]
			if ev.Type != obs.TypeQuorumChange || !ok || adopted[i] != 0 {
				continue
			}
			members := quorumMembers(ev.Detail)
			if len(members) != q {
				r.failf("n=%d: QUORUM_CHANGE event %q does not list %d members", n, ev.Detail, q)
				return c
			}
			if !members[crashed.String()] {
				adopted[i] = ev.At
				pending--
			}
		}
	}
	if pending > 0 {
		r.failf("n=%d: %d correct processes still include crashed %s after %s", n, pending, crashed, limit)
		return c
	}
	// Run on until every correct process holds the same quorum.
	agreed := func() bool {
		first := live[0].CurrentQuorum()
		for _, node := range live[1:] {
			if !node.CurrentQuorum().Equal(first) {
				return false
			}
		}
		return true
	}
	if !net.RunUntil(agreed, limit) {
		r.failf("n=%d: correct processes never agreed on one quorum", n)
		return c
	}
	c.converge = ms(net.Now() - crashAt)
	for _, at := range adopted {
		c.adoptMs = append(c.adoptMs, ms(at-crashAt))
	}
	sort.Float64s(c.adoptMs)

	observer := live[0]
	issued := observer.CurrentQuorum()
	c.quorum = issued.Members
	if issued.Contains(crashed) {
		r.failf("n=%d: agreed quorum %s contains crashed %s", n, issued, crashed)
	}
	members := make([]int, len(issued.Members))
	for i, m := range issued.Members {
		members[i] = int(m)
	}
	adj := suspectAdjacency(observer.Store.Snapshot(), observer.Store.Epoch())
	if err := verifyQuorum(adj, n-f, members); err != nil {
		r.failf("n=%d: %v", n, err)
	}
	if traced {
		c.updBytes = counter.kinds[wire.TypeUpdate]
		g := observer.Store.SuspectGraph()
		t0 := time.Now()
		g.FirstIndependentSet(q)
		c.isetUs = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	c.wall = time.Since(setupStart)
	// The heap is read outside the timed wall, and only in untraced
	// passes: its forced collections would be charged to cpu.gc.
	if !traced {
		c.heapBytes = liveHeap()
	}
	return c
}

// adversaryChurn plays the §VII-B adversary against Algorithm 1 and the
// leader-targeting adversary against Follower Selection, both at f=10.
func adversaryChurn(r *selRound, seed int64) {
	n := 3*churnF + 1
	cfg := ids.MustConfig(n, churnF)

	copts := core.DefaultNodeOptions()
	copts.HeartbeatPeriod = 0 // the adversary injects suspicions directly
	cnodes := make(map[ids.ProcessID]*core.Node, n)
	rnodes := make(map[ids.ProcessID]runtime.Node, n)
	for _, p := range cfg.All() {
		node := core.NewNode(copts)
		cnodes[p], rnodes[p] = node, node
	}
	net := sim.NewNetwork(cfg, rnodes, sim.Options{Seed: seed, Metrics: r.regs[2]})
	qs := adversary.RunQuorumChurn(net, cnodes, adversary.ChurnOptions{F: churnF, Picker: adversary.PickLex})
	net.Close()
	r.qsMax, r.qsIssued = qs.MaxPerEpoch, qs.QuorumsIssued
	if err := checkAlgorithm1(churnF, qs.MaxPerEpoch, qs.QuorumsIssued+1); err != nil {
		r.failf("%v", err)
	}
	if !qs.Agreement {
		r.failf("Algorithm 1 under the adversary ended without agreement")
	}

	fopts := follower.DefaultNodeOptions()
	fopts.HeartbeatPeriod = 0
	fnodes := make(map[ids.ProcessID]*follower.Node, n)
	rnodes = make(map[ids.ProcessID]runtime.Node, n)
	for _, p := range cfg.All() {
		node := follower.NewNode(fopts)
		fnodes[p], rnodes[p] = node, node
	}
	net = sim.NewNetwork(cfg, rnodes, sim.Options{Seed: seed, Metrics: r.regs[3]})
	fs := adversary.RunFollowerChurn(net, fnodes, adversary.FollowerChurnOptions{F: churnF})
	r.fsMax, r.fsIssued = fs.MaxPerEpoch, fs.QuorumsIssued
	if err := checkFollowerSelection(churnF, fs.MaxPerEpoch, fs.QuorumsIssued); err != nil {
		r.failf("%v", err)
	}
	if !fs.Agreement {
		r.failf("Follower Selection under the adversary ended without agreement")
	}
	g := fnodes[1].Store.SuspectGraph()
	t0 := time.Now()
	graph.MaximalLineSubgraph(g)
	r.lineUs = float64(time.Since(t0).Nanoseconds()) / 1e3
	net.Close()
}

// quorumMembers reads the members of a QUORUM_CHANGE event's quorum,
// printed as {p1,p2,...} (after a leader, when the quorum has one).
func quorumMembers(detail string) map[string]bool {
	i, j := strings.LastIndexByte(detail, '{'), strings.LastIndexByte(detail, '}')
	if i < 0 || j < i {
		return nil
	}
	members := map[string]bool{}
	for _, m := range strings.Split(detail[i+1:j], ",") {
		if m != "" {
			members[m] = true
		}
	}
	return members
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
