package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	qs "quorumselect"
	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/storage"
	"quorumselect/internal/transport"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// lan-commit: the commit path as cmd/xpaxos deploys it, four
// transport.Hosts in this process on ephemeral loopback ports, ed25519
// signatures, the program's in-memory WAL backend per replica and the
// KV state machine. One load goroutine runs a closed loop of 32 clients, each
// with one outstanding request at the leader.
const (
	lanN          = 4
	lanF          = 1
	lanClients    = 32
	lanKeys       = 10000
	lanZipfS      = 1.1
	lanBatch      = 8
	lanWindow     = 16
	lanCheckpoint = 100
	lanHeartbeat  = 50 * time.Millisecond
	lanWarmup     = 500 * time.Millisecond
	lanSetups     = 3
	lanStall      = 10 * time.Second // no execution for this long fails the run
)

// completion is one execution at the leader, as its OnExecute saw it.
type completion struct {
	client, seq uint64
	at          time.Time
	result      uint64 // hash of the result bytes
}

// lanTrace holds the traced pass's wrappers.
type lanTrace struct {
	auth  *timedAuth
	store storeStats
	sm    smStats
}

// lanCluster is one running four-host deployment.
type lanCluster struct {
	hosts []*transport.Host
	reps  []*xpaxos.Replica
	kvs   []*xpaxos.KVMachine
	regs  []*metrics.Registry
	// execs[i] lists replica i+1's executions as client<<32|seq, in
	// order; only that host's event loop appends to it.
	execs [][]uint64
	done  chan completion
}

// startLAN starts the four hosts, each replica with its own in-memory
// WAL backend.
func startLAN(seed int64, tr *lanTrace) (*lanCluster, error) {
	cfg := ids.MustConfig(lanN, lanF)
	var auth crypto.Authenticator
	auth, err := qs.NewEd25519Auth(cfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.auth.inner = auth
		auth = tr.auth
	}
	c := &lanCluster{
		execs: make([][]uint64, lanN),
		// Each client has at most one request outstanding, plus the
		// set-up probe: the leader never blocks on this channel.
		done: make(chan completion, lanClients+1),
	}
	for i := 0; i < lanN; i++ {
		i := i
		p := ids.ProcessID(i + 1)
		var backend storage.Backend = qs.NewMemStorage()
		kv := xpaxos.NewKVMachine()
		var sm xpaxos.StateMachine = kv
		if tr != nil {
			backend = &timedBackend{inner: backend, stats: &tr.store}
			sm = wrapSM(kv, &tr.sm)
		}
		nodeOpts := qs.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = lanHeartbeat
		nodeOpts.Storage = backend
		node, rep := qs.NewXPaxosNode(qs.XPaxosOptions{
			SM:                 sm,
			CheckpointInterval: lanCheckpoint,
			BatchSize:          lanBatch,
			Window:             lanWindow,
			OnExecute: func(e qs.Execution) {
				c.execs[i] = append(c.execs[i], e.Client<<32|e.Seq)
				if i == 0 {
					c.done <- completion{client: e.Client, seq: e.Seq, at: time.Now(), result: hashResult(e.Result)}
				}
			},
		}, nodeOpts)
		reg := metrics.NewRegistry()
		host, err := qs.NewTCPHost(qs.HostConfig{
			Self:    p,
			System:  cfg,
			Auth:    auth,
			Metrics: reg,
			Seed:    seed + int64(p),
		}, node)
		if err != nil {
			c.close()
			return nil, err
		}
		c.hosts = append(c.hosts, host)
		c.reps = append(c.reps, rep)
		c.kvs = append(c.kvs, kv)
		c.regs = append(c.regs, reg)
	}
	for _, h := range c.hosts {
		for j, peer := range c.hosts {
			if h != peer {
				h.SetPeerAddr(ids.ProcessID(j+1), peer.Addr())
			}
		}
	}
	return c, nil
}

// submit hands one request to the leader (p1 in view 0) and returns how
// long the load goroutine was blocked.
func (c *lanCluster) submit(client, seq uint64, op string) time.Duration {
	t := time.Now()
	req := &wire.Request{Client: client, Seq: seq, Op: []byte(op)}
	leader := c.reps[0]
	c.hosts[0].Do(func() { leader.Submit(req) })
	return time.Since(t)
}

// close stops every host.
func (c *lanCluster) close() {
	for _, h := range c.hosts {
		h.Close()
	}
}

// dropRecords releases the per-execution histories the benchmark keeps
// for its checks, so that a heap reading afterwards is the program's.
func (c *lanCluster) dropRecords() {
	for i, h := range c.hosts {
		h.Do(func() { c.execs[i] = nil })
	}
}

// lanOps generates each client's operations from the seed: Zipf keys,
// half sets, a fifth appends, the rest gets.
type lanOps struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	ops  [][]string // per client, indexed by seq-1
}

func newLANOps(seed int64) *lanOps {
	rng := rand.New(rand.NewSource(seed))
	return &lanOps{rng: rng, zipf: rand.NewZipf(rng, lanZipfS, 1, lanKeys-1), ops: make([][]string, lanClients+1)}
}

func (g *lanOps) next(client uint64) (uint64, string) {
	key := fmt.Sprintf("k%d", g.zipf.Uint64())
	var op string
	switch r := g.rng.Intn(10); {
	case r < 5:
		op = fmt.Sprintf("set %s v%08x", key, g.rng.Uint32())
	case r < 7:
		op = fmt.Sprintf("append %s a%d", key, g.rng.Intn(10))
	default:
		op = "get " + key
	}
	g.ops[client] = append(g.ops[client], op)
	return uint64(len(g.ops[client])), op
}

func (g *lanOps) op(client, seq uint64) (string, bool) {
	if client >= uint64(len(g.ops)) || seq == 0 || seq > uint64(len(g.ops[client])) {
		return "", false
	}
	return g.ops[client][seq-1], true
}

// setupCluster starts a cluster and waits for its first commit; the
// returned duration is the set-up time (keys, listeners, dials, first
// request through the commit path).
func setupCluster(p params, gen *lanOps, tr *lanTrace) (*lanCluster, completion, time.Duration, error) {
	t0 := time.Now()
	c, err := startLAN(p.seed, tr)
	if err != nil {
		return nil, completion{}, 0, err
	}
	seq, op := gen.next(0)
	c.submit(0, seq, op)
	select {
	case probe := <-c.done:
		return c, probe, time.Since(t0), nil
	case <-time.After(lanStall):
		c.close()
		return nil, completion{}, 0, fmt.Errorf("first request did not commit within %s", lanStall)
	}
}

func runLAN(p params, traced bool) (*outcome, error) {
	o := newOutcome()
	goroutines := runtime.NumGoroutine()
	var tr *lanTrace
	if traced {
		tr = &lanTrace{auth: &timedAuth{}}
	}

	// Set-up is measured several times; all but the last cluster are
	// torn down again, which also checks that teardown is complete.
	var setups []float64
	for i := 0; i < lanSetups; i++ {
		gen := newLANOps(p.seed)
		c, probe, d, err := setupCluster(p, gen, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < lanSetups-1 {
			c.close()
			checkGoroutines(o, goroutines, "after set-up teardown")
			continue
		}
		// driveLAN checks the outputs and returns; its records and gen
		// are dead afterwards, so the heap reading sees only the program.
		err = driveLAN(p, o, c, gen, tr, probe)
		if err == nil {
			c.dropRecords()
			o.e2e["heap_retained_mb"] = float64(liveHeap()) / (1 << 20)
		}
		c.close()
		if err != nil {
			return nil, err
		}
	}
	checkGoroutines(o, goroutines, "after the run")
	o.e2e["setup_s"] = median(setups)
	return o, nil
}

// driveLAN runs the closed loop, then checks every output.
func driveLAN(p params, o *outcome, c *lanCluster, gen *lanOps, tr *lanTrace, probe completion) error {
	type client struct {
		seq       uint64
		submitted time.Time
	}
	clients := make([]client, lanClients+1)
	order := []completion{probe}
	var waits []float64
	issue := func(id uint64) {
		seq, op := gen.next(id)
		clients[id] = client{seq: seq, submitted: time.Now()}
		waits = append(waits, float64(c.submit(id, seq, op).Nanoseconds())/1e3)
	}
	for id := uint64(1); id <= lanClients; id++ {
		issue(id)
	}

	warmEnd := time.Now().Add(lanWarmup)
	measureEnd := warmEnd.Add(time.Duration(p.seconds) * time.Second)
	var lat []float64
	executed := 0
	outstanding := lanClients
	// The traced window opens after warm-up and closes at the end of
	// the measured time, like the latency and throughput samples.
	var (
		snap      *lanSnapshot
		tracing   *tracer
		traceRes  traceResult
		tracedOps int
		waitStart int
	)
	for outstanding > 0 {
		if tr != nil && snap == nil && time.Now().After(warmEnd) {
			snap, tracing, waitStart = takeSnapshot(c, tr), startTrace(true), len(waits)
		}
		var done completion
		select {
		case done = <-c.done:
		case <-time.After(lanStall):
			return fmt.Errorf("leader executed nothing for %s (%d requests outstanding)", lanStall, outstanding)
		}
		order = append(order, done)
		cl := &clients[done.client]
		if done.client == 0 || done.client > lanClients || done.seq != cl.seq {
			o.fail("leader executed unexpected request client=%d seq=%d", done.client, done.seq)
			continue
		}
		if !done.at.Before(warmEnd) && !done.at.After(measureEnd) {
			executed++
			if !cl.submitted.Before(warmEnd) {
				lat = append(lat, float64(done.at.Sub(cl.submitted).Nanoseconds())/1e6)
			}
		}
		if tracing != nil && !traceRes.on {
			tracedOps++
		}
		if time.Now().Before(measureEnd) {
			issue(done.client)
			continue
		}
		if tracing != nil && !traceRes.on {
			traceRes = tracing.stop()
			traceRes.addLayers(o.layer, float64(tracedOps))
			snap.finish(c, tr, o.layer, float64(tracedOps))
			o.layer["client.submit_wait.us"] = median(waits[waitStart:])
		}
		outstanding--
	}
	o.attempted += len(order)

	sort.Float64s(lat)
	o.e2e["throughput_per_s"] = float64(executed) / float64(p.seconds)
	o.e2e["p50_ms"] = quantileSorted(lat, 50)
	o.e2e["p99_ms"] = quantileSorted(lat, 99)
	o.notes = append(o.notes, fmt.Sprintf("executed=%d in %ds  latency samples=%d  submit wait p50=%.1fus",
		executed, p.seconds, len(lat), median(waits)))

	// Every replica must catch up with the leader before the checks.
	total := len(order)
	catchUp := time.Now().Add(lanStall)
	for i := range c.hosts {
		for {
			var n int
			c.hosts[i].Do(func() { n = len(c.execs[i]) })
			if n >= total || time.Now().After(catchUp) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	checkLAN(o, c, gen, order)
	return nil
}

// checkLAN replays the leader's execution order through the KV model
// and compares results, per-replica histories and final states.
func checkLAN(o *outcome, c *lanCluster, gen *lanOps, order []completion) {
	histories := make([][]uint64, lanN)
	for i, h := range c.hosts {
		h.Do(func() { histories[i] = append([]uint64(nil), c.execs[i]...) })
	}
	leader := histories[0]
	if len(leader) != len(order) {
		o.fail("leader history has %d executions, the load goroutine saw %d", len(leader), len(order))
	}
	model := newKVModel()
	seen := make(map[uint64]bool, len(order))
	for i, done := range order {
		key := done.client<<32 | done.seq
		if i < len(leader) && leader[i] != key {
			o.fail("leader history differs from its OnExecute order at %d", i)
		}
		if seen[key] {
			o.fail("client %d seq %d executed twice", done.client, done.seq)
		}
		seen[key] = true
		op, ok := gen.op(done.client, done.seq)
		if !ok {
			o.fail("client %d seq %d was never submitted", done.client, done.seq)
			continue
		}
		want := model.apply(op)
		if hashResult([]byte(want)) != done.result {
			o.fail("%q returned a result other than the model's %q", op, want)
		}
	}
	for id := range gen.ops {
		for seq := range gen.ops[id] {
			if !seen[uint64(id)<<32|uint64(seq+1)] {
				o.fail("client %d seq %d never executed", id, seq+1)
			}
		}
	}
	for i := 1; i < lanN; i++ {
		if !equalHistories(histories[i], leader) {
			o.fail("replica p%d executed a different sequence (%d executions) than the leader (%d)",
				i+1, len(histories[i]), len(leader))
		}
	}
	for i, h := range c.hosts {
		kv := c.kvs[i]
		var size int
		mismatch := ""
		h.Do(func() {
			size = kv.Len()
			for k, want := range model.data {
				if got, ok := kv.Get(k); !ok || got != want {
					mismatch = k
					return
				}
			}
		})
		if size != len(model.data) || mismatch != "" {
			o.fail("replica p%d final state differs from the model (%d keys vs %d, first differing key %q)",
				i+1, size, len(model.data), mismatch)
		}
	}
}

func equalHistories(a, b []uint64) bool {
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

// checkGoroutines waits briefly for goroutines of closed hosts to exit,
// then checks the count is back to its starting level.
func checkGoroutines(o *outcome, start int, when string) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		o.fail("%d goroutines %s, %d at start", n, when, start)
	}
}

// lanSnapshot holds counter readings at the start of the traced window.
type lanSnapshot struct {
	counters                                 map[string]int64
	hists                                    map[string]metrics.Histogram
	signs, signNs, verifies, verifyNs        int64
	syncs, syncNs, written, snaps, snapBytes int64
	applyNs, snapNs                          int64
}

var lanCounters = []string{
	"transport.sent", "transport.writev.flushes", "fd.expectation.issued",
	"fd.suspicion.raised", "xpaxos.viewchange",
}

var lanHists = []string{"host.ingress.batch_size", "fd.detection.latency.seconds", "xpaxos.viewchange.duration.seconds"}

// sentBytes sums the bytes a registry counted as sent, by message type.
func sentBytes(reg *metrics.Registry, types ...wire.Type) int64 {
	var total int64
	for _, t := range types {
		total += reg.LabeledCounter("transport.bytes.total",
			metrics.L{Key: "type", Value: t.String()}, metrics.L{Key: "dir", Value: "sent"})
	}
	return total
}

// allTypes lists every wire message type.
func allTypes() []wire.Type {
	var out []wire.Type
	for t := wire.Type(1); t < 64; t++ {
		if s := t.String(); len(s) < 5 || s[:5] != "TYPE(" {
			out = append(out, t)
		}
	}
	return out
}

func takeSnapshot(c *lanCluster, tr *lanTrace) *lanSnapshot {
	s := &lanSnapshot{counters: map[string]int64{}, hists: map[string]metrics.Histogram{}}
	s.read(c, tr)
	return s
}

func (s *lanSnapshot) read(c *lanCluster, tr *lanTrace) {
	for _, name := range lanCounters {
		s.counters[name] = sumCounter(c.regs, name)
	}
	var bytes, vcBytes int64
	for _, reg := range c.regs {
		bytes += sentBytes(reg, allTypes()...)
		vcBytes += sentBytes(reg, wire.TypeViewChange, wire.TypeNewView)
	}
	s.counters["bytes"], s.counters["vcbytes"] = bytes, vcBytes
	for _, name := range lanHists {
		var agg metrics.Histogram
		for _, reg := range c.regs {
			if h, ok := reg.Hist(name); ok {
				agg.Count += h.Count
				agg.Sum += h.Sum
			}
		}
		s.hists[name] = agg
	}
	s.signs, s.signNs = tr.auth.signs.Load(), tr.auth.signNs.Load()
	s.verifies, s.verifyNs = tr.auth.verifies.Load(), tr.auth.verifyNs.Load()
	s.syncs, s.syncNs, s.written = tr.store.syncs.Load(), tr.store.syncNs.Load(), tr.store.written.Load()
	s.snaps, s.snapBytes = tr.store.snapshots.Load(), tr.store.snapBytes.Load()
	s.applyNs, s.snapNs = tr.sm.applyNs.Load(), tr.sm.snapNs.Load()
}

// finish reads the counters again and reports the window's deltas per
// executed request.
func (s *lanSnapshot) finish(c *lanCluster, tr *lanTrace, layer map[string]float64, ops float64) {
	e := &lanSnapshot{counters: map[string]int64{}, hists: map[string]metrics.Histogram{}}
	e.read(c, tr)
	d := func(name string) float64 { return float64(e.counters[name] - s.counters[name]) }
	mean := func(name string) float64 {
		n := e.hists[name].Count - s.hists[name].Count
		if n == 0 {
			return 0
		}
		return (e.hists[name].Sum - s.hists[name].Sum) / float64(n)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 / ops }
	layer["crypto.sign.us_per_op"] = us(e.signNs - s.signNs)
	layer["crypto.sign.calls_per_op"] = float64(e.signs-s.signs) / ops
	layer["crypto.verify.us_per_op"] = us(e.verifyNs - s.verifyNs)
	layer["crypto.verify.calls_per_op"] = float64(e.verifies-s.verifies) / ops
	layer["storage.sync.us_per_op"] = us(e.syncNs - s.syncNs)
	layer["storage.sync.calls_per_op"] = float64(e.syncs-s.syncs) / ops
	layer["storage.write.bytes_per_op"] = float64(e.written-s.written) / ops
	if n := e.snaps - s.snaps; n > 0 {
		layer["storage.snapshot.bytes"] = float64(e.snapBytes-s.snapBytes) / float64(n)
	}
	layer["execute.apply.us_per_op"] = us(e.applyNs - s.applyNs)
	layer["execute.snapshot.us_per_op"] = us(e.snapNs - s.snapNs)
	layer["transport.frames_per_op"] = d("transport.sent") / ops
	layer["transport.bytes_per_op"] = d("bytes") / ops
	if f := d("transport.writev.flushes"); f > 0 {
		layer["transport.frames_per_flush"] = d("transport.sent") / f
	}
	layer["host.batch_size.mean"] = mean("host.ingress.batch_size")
	layer["xpaxos.view_changes"] = d("xpaxos.viewchange")
	layer["xpaxos.viewchange.ms"] = mean("xpaxos.viewchange.duration.seconds") * 1e3
	layer["xpaxos.viewchange.bytes"] = d("vcbytes")
	layer["fd.expectations_per_op"] = d("fd.expectation.issued") / ops
	layer["fd.suspicions"] = d("fd.suspicion.raised")
	layer["fd.detect.ms"] = mean("fd.detection.latency.seconds") * 1e3
}
