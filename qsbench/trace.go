package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// Per-layer metrics with their units. Every traced run reports all of
// them; a layer a workload does not exercise reads 0 there (README.md
// lists which workload each one belongs to).
var layerUnits = func() map[string]string {
	u := map[string]string{
		"crypto.sign.us_per_op":      "us",
		"crypto.sign.calls_per_op":   "count",
		"crypto.verify.us_per_op":    "us",
		"crypto.verify.calls_per_op": "count",
		"storage.sync.us_per_op":     "us",
		"storage.sync.calls_per_op":  "count",
		"storage.write.bytes_per_op": "B",
		"storage.snapshot.bytes":     "B",
		"execute.apply.us_per_op":    "us",
		"execute.snapshot.us_per_op": "us",
		"client.submit_wait.us":      "us",
		"transport.frames_per_op":    "count",
		"transport.bytes_per_op":     "B",
		"transport.frames_per_flush": "count",
		"host.batch_size.mean":       "count",
		"xpaxos.view_changes":        "count",
		"xpaxos.viewchange.ms":       "ms",
		"xpaxos.viewchange.bytes":    "B",
		"fd.expectations_per_op":     "count",
		"fd.suspicions":              "count",
		"fd.detect.ms":               "ms",
		"suspicion.update.msgs":      "count",
		"suspicion.update.bytes":     "B",
		"core.quorum.update.us":      "us",
		"core.quorums_issued":        "count",
		"follower.quorums_issued":    "count",
		"graph.first_iset.us":        "us",
		"graph.max_line.us":          "us",
		"sim.msgs_per_op":            "count",
		"recovery_ms":                "ms",
		"converge_ms":                "ms",
		"go.alloc_bytes_per_op":      "B",
		"go.allocs_per_op":           "count",
		"go.gc_cycles":               "count",
	}
	for _, m := range cpuModules {
		u["cpu."+m+".us_per_op"] = "us"
	}
	u["cpu.total.us_per_op"] = "us"
	return u
}()

// cpuModules are the program's layers a CPU sample is charged to.
var cpuModules = []string{
	"transport", "wire", "crypto", "fd", "suspicion", "graph", "core", "follower",
	"xpaxos", "host", "storage", "sim", "load", "gc", "other",
}

// tracer holds what a traced pass measures about the whole process: a
// CPU profile and the allocator's counters.
type tracer struct {
	on    bool
	buf   bytes.Buffer
	start runtime.MemStats
}

type traceResult struct {
	on       bool
	profile  []byte
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
}

func startTrace(on bool) *tracer {
	t := &tracer{on: on}
	if !on {
		return t
	}
	runtime.ReadMemStats(&t.start)
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		t.buf.Reset()
	}
	return t
}

func (t *tracer) stop() traceResult {
	if !t.on {
		return traceResult{}
	}
	pprof.StopCPUProfile()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return traceResult{
		on:       true,
		profile:  t.buf.Bytes(),
		mallocs:  end.Mallocs - t.start.Mallocs,
		bytes:    end.TotalAlloc - t.start.TotalAlloc,
		gcCycles: end.NumGC - t.start.NumGC,
	}
}

// addLayers adds the CPU and allocation metrics, per operation.
func (r traceResult) addLayers(layer map[string]float64, ops float64) {
	if !r.on || ops <= 0 {
		return
	}
	byModule, err := cpuByModule(r.profile)
	total := time.Duration(0)
	if err == nil {
		for _, m := range cpuModules {
			total += byModule[m]
			layer["cpu."+m+".us_per_op"] = float64(byModule[m].Nanoseconds()) / 1e3 / ops
		}
	}
	layer["cpu.total.us_per_op"] = float64(total.Nanoseconds()) / 1e3 / ops
	layer["go.alloc_bytes_per_op"] = float64(r.bytes) / ops
	layer["go.allocs_per_op"] = float64(r.mallocs) / ops
	layer["go.gc_cycles"] = float64(r.gcCycles)
}

// moduleOf names the program layer a function belongs to, or "" when
// it belongs to none (the standard library, the benchmark, helpers
// such as metrics and obs that are charged to their caller).
func moduleOf(fn string) string {
	const prefix = "quorumselect/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range cpuModules {
		if m == rest && m != "gc" && m != "other" {
			return m
		}
	}
	return ""
}

// isGC reports whether a frame is garbage-collector work; a sample with
// such a frame anywhere on its stack is charged to gc.
func isGC(fn string) bool {
	switch {
	case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"),
		strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
		strings.HasPrefix(fn, "runtime.gcDrain"),
		strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.bgscavenge"),
		strings.HasPrefix(fn, "runtime.gcStart"),
		strings.HasPrefix(fn, "runtime.markroot"),
		fn == "runtime.GC":
		return true
	}
	return false
}

// classify charges one stack (leaf first) to a module: gc if the
// collector is anywhere on it, else the innermost program layer, else
// other.
func classify(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "other"
}

// timedAuth times the authenticator the benchmark hands to the hosts.
// It is called from event loops and verifier workers at once.
type timedAuth struct {
	inner              crypto.Authenticator
	signs, signNs      atomic.Int64
	verifies, verifyNs atomic.Int64
}

func (a *timedAuth) Sign(as ids.ProcessID, data []byte) ([]byte, error) {
	t := time.Now()
	sig, err := a.inner.Sign(as, data)
	a.signNs.Add(int64(time.Since(t)))
	a.signs.Add(1)
	return sig, err
}

func (a *timedAuth) Verify(signer ids.ProcessID, data, sig []byte) error {
	t := time.Now()
	err := a.inner.Verify(signer, data, sig)
	a.verifyNs.Add(int64(time.Since(t)))
	a.verifies.Add(1)
	return err
}

// storeStats accumulates what the storage wrappers see.
type storeStats struct {
	syncs, syncNs, written atomic.Int64
	snapshots, snapBytes   atomic.Int64
}

// timedBackend wraps a storage backend; it forwards sub-trees so the
// program takes the same paths as with the bare backend.
type timedBackend struct {
	inner storage.Backend
	stats *storeStats
}

func (b *timedBackend) List() ([]string, error)              { return b.inner.List() }
func (b *timedBackend) ReadFile(name string) ([]byte, error) { return b.inner.ReadFile(name) }
func (b *timedBackend) Rename(oldName, newName string) error { return b.inner.Rename(oldName, newName) }
func (b *timedBackend) Remove(name string) error             { return b.inner.Remove(name) }

func (b *timedBackend) Create(name string) (storage.File, error) {
	f, err := b.inner.Create(name)
	if err != nil {
		return nil, err
	}
	snap := strings.HasPrefix(name, "snap-")
	if snap {
		b.stats.snapshots.Add(1)
	}
	return &timedFile{inner: f, stats: b.stats, snap: snap}, nil
}

func (b *timedBackend) Sub(name string) (storage.Backend, error) {
	sub, err := storage.Sub(b.inner, name)
	if err != nil {
		return nil, err
	}
	return &timedBackend{inner: sub, stats: b.stats}, nil
}

type timedFile struct {
	inner storage.File
	stats *storeStats
	snap  bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	f.stats.written.Add(int64(n))
	if f.snap {
		f.stats.snapBytes.Add(int64(n))
	}
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.inner.Sync()
	f.stats.syncNs.Add(int64(time.Since(t)))
	f.stats.syncs.Add(1)
	return err
}

func (f *timedFile) Close() error { return f.inner.Close() }

// smStats accumulates state-machine timings across replicas.
type smStats struct {
	applyNs, snapNs atomic.Int64
}

// timedSM times Apply; timedSnapSM adds Snapshot/Restore for machines
// that support checkpoints, so wrapping never switches them off.
type timedSM struct {
	inner xpaxos.StateMachine
	stats *smStats
}

func (s *timedSM) Apply(op []byte) []byte {
	t := time.Now()
	out := s.inner.Apply(op)
	s.stats.applyNs.Add(int64(time.Since(t)))
	return out
}

type timedSnapSM struct {
	timedSM
	snap xpaxos.Snapshotter
}

func (s *timedSnapSM) Snapshot() []byte {
	t := time.Now()
	out := s.snap.Snapshot()
	s.stats.snapNs.Add(int64(time.Since(t)))
	return out
}

func (s *timedSnapSM) Restore(snapshot []byte) error { return s.snap.Restore(snapshot) }

func wrapSM(inner xpaxos.StateMachine, stats *smStats) xpaxos.StateMachine {
	if snap, ok := inner.(xpaxos.Snapshotter); ok {
		return &timedSnapSM{timedSM: timedSM{inner: inner, stats: stats}, snap: snap}
	}
	return &timedSM{inner: inner, stats: stats}
}

// byteCounter is a pass-through simulator filter that sums the encoded
// size of chosen message types; it never alters delivery.
type byteCounter struct {
	kinds map[wire.Type]int64
}

func newByteCounter(kinds ...wire.Type) *byteCounter {
	c := &byteCounter{kinds: map[wire.Type]int64{}}
	for _, k := range kinds {
		c.kinds[k] = 0
	}
	return c
}

func (c *byteCounter) Filter(_, _ ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
	if _, ok := c.kinds[m.Kind()]; ok {
		frame := wire.EncodePooled(m)
		c.kinds[m.Kind()] += int64(len(frame))
		wire.Recycle(frame)
	}
	return sim.Verdict{}
}
