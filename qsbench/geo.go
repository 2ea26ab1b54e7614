package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/ids"
	"quorumselect/internal/load"
	"quorumselect/internal/metrics"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// geo-failover: open-loop Poisson traffic against a 7-process XPaxos
// cluster spread over the geo3 WAN, in virtual time. The initial leader
// p1 crashes hard and later restarts from its WAL; after that, p3 (a
// member of the quorum that replaced p1's) suffers a growing timing
// fault for a bounded window. A round is one load.RunSim run; a pass
// repeats rounds with the same inputs until its time is up, and every
// repeat must reproduce the first round's summary exactly.
const (
	geoN          = 7
	geoRate       = 500 // requests per virtual second
	geoKeys       = 10000
	geoZipfS      = 1.1
	geoDuration   = 10 * time.Second
	geoCrashAt    = 2 * time.Second
	geoRestart    = 5 * time.Second
	geoSlowFrom   = 6500 * time.Millisecond
	geoSlowTo     = 8500 * time.Millisecond
	geoSlope      = 70 * time.Millisecond // added delay per virtual second
	geoBucket     = 50 * time.Millisecond
	geoWarmup     = 500 * time.Millisecond
	geoTopology   = "examples/topologies/geo3.topo"
	geoSetups     = 31
	geoSetupBatch = 20
)

var geoSlowProc = ids.ProcessID(3)

// geoRound is what one RunSim run produced.
type geoRound struct {
	sum      *load.Summary
	wall     time.Duration
	reg      *metrics.Registry
	bytes    *byteCounter
	heap     uint64
	recovery float64
}

func runGeo(p params, traced bool) (*outcome, error) {
	o := newOutcome()
	path := filepath.Join(p.root, geoTopology)
	topo, err := sim.LoadTopology(path)
	if err != nil {
		return nil, err
	}
	bound, err := topo.Bind(geoN)
	if err != nil {
		return nil, err
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	floor, err := newGeoFloors(string(src))
	if err != nil {
		return nil, err
	}

	// Set-up: building, starting and closing the simulated cluster,
	// measured as runs whose arrival window closes before any arrival.
	// One build takes about a millisecond, which a single preemption or
	// collection can double, so each sample times a batch of builds.
	var setups []float64
	for i := 0; i < geoSetups; i++ {
		t0 := time.Now()
		for j := 0; j < geoSetupBatch; j++ {
			if _, err := load.RunSim(geoOptions(p.seed, bound, time.Nanosecond, nil, nil)); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/geoSetupBatch)
	}
	t := startTrace(traced)
	var rounds []*geoRound
	end := deadline(p)
	for len(rounds) == 0 || time.Now().Before(end) {
		r, err := geoRun(p.seed, bound, traced)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		checkGeoRound(o, r, floor)
		if len(rounds) > 1 {
			a, b := geoSignature(r), geoSignature(rounds[0])
			if a != b {
				o.fail("round %d differs from round 1 under the same seed", len(rounds))
			}
		}
	}
	prof := t.stop()

	first := rounds[0]
	var rates []float64
	for _, r := range rounds {
		rates = append(rates, float64(r.sum.Completed)/r.wall.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["throughput_per_s"] = median(rates)
	o.e2e["p50_ms"] = first.sum.LatencyMs.P50
	o.e2e["p99_ms"] = first.sum.LatencyMs.P99
	if !traced {
		o.check(first.heap > 0, "heap probe never ran")
		o.e2e["heap_retained_mb"] = float64(first.heap) / (1 << 20)
	}
	o.notes = append(o.notes,
		fmt.Sprintf("rounds=%d  offered=%d completed=%d shed=%d  sim_rps per round=%.0f",
			len(rounds), first.sum.Offered, first.sum.Completed, first.sum.Shed, rates),
		fmt.Sprintf("vt_commit_p50_ms=%.3f vt_commit_p99_ms=%.3f  recovery_ms=%.1f  latency floors %.3f ms (any quorum), %.3f ms (before the crash)",
			first.sum.LatencyMs.P50, first.sum.LatencyMs.P99, first.recovery, floor.any, floor.initial))
	for _, name := range []string{"msg.sent.total", "msg.sent.UPDATE", "msg.sent.VIEW-CHANGE", "xpaxos.executed"} {
		o.counts[name] = first.reg.Counter(name)
	}
	if traced {
		ops := float64(first.sum.Completed) * float64(len(rounds))
		prof.addLayers(o.layer, ops)
		done := float64(first.sum.Completed)
		reg := first.reg
		o.layer["recovery_ms"] = first.recovery
		o.layer["host.batch_size.mean"] = histMean(reg, "host.ingress.batch_size")
		o.layer["xpaxos.view_changes"] = float64(reg.Counter("xpaxos.viewchange"))
		o.layer["xpaxos.viewchange.ms"] = histMean(reg, "xpaxos.viewchange.duration.seconds") * 1e3
		o.layer["xpaxos.viewchange.bytes"] = float64(first.bytes.kinds[wire.TypeViewChange] + first.bytes.kinds[wire.TypeNewView])
		o.layer["fd.expectations_per_op"] = float64(reg.Counter("fd.expectation.issued")) / done
		o.layer["fd.suspicions"] = float64(reg.Counter("fd.suspicion.raised"))
		o.layer["fd.detect.ms"] = histMean(reg, "fd.detection.latency.seconds") * 1e3
		o.layer["suspicion.update.msgs"] = float64(reg.Counter("msg.sent.UPDATE"))
		o.layer["suspicion.update.bytes"] = float64(first.bytes.kinds[wire.TypeUpdate])
		o.layer["core.quorums_issued"] = float64(reg.Counter("core.quorum.issued"))
		o.layer["sim.msgs_per_op"] = float64(reg.Counter("msg.sent.total")) / done
	}
	return o, nil
}

// geoOptions builds the run's inputs from the seed.
func geoOptions(seed int64, bound *sim.BoundTopology, window time.Duration, filter sim.Filter, reg *metrics.Registry) load.SimOptions {
	slow := &adversary.Window{From: geoSlowFrom, Until: geoSlowTo,
		Inner: &adversary.GrowingDelay{Faulty: ids.NewProcSet(geoSlowProc), Slope: geoSlope}}
	if filter != nil {
		filter = sim.ChainFilters(slow, filter)
	} else {
		filter = slow
	}
	return load.SimOptions{
		N:           geoN,
		Arrivals:    &load.Poisson{R: geoRate},
		Keys:        &load.ZipfKeys{N: geoKeys, S: geoZipfS},
		Seed:        seed,
		Duration:    window,
		Topology:    bound,
		Filter:      filter,
		Crashes:     []load.Crash{{Proc: 1, At: geoCrashAt, RestartAt: geoRestart, Hard: true}},
		BucketWidth: geoBucket,
		Metrics:     reg,
	}
}

// heapProbe is a pass-through filter that measures the live heap once,
// when virtual time first reaches the end of the arrival window: the
// simulated cluster is then still up with its full history. It also
// times itself, so that its forced collections can be taken out of the
// run's wall time.
type heapProbe struct {
	at    time.Duration
	bytes uint64
	took  time.Duration
}

func (h *heapProbe) Filter(_, _ ids.ProcessID, _ wire.Message, now time.Duration) sim.Verdict {
	if h.bytes == 0 && now >= h.at {
		t0 := time.Now()
		h.bytes = liveHeap()
		h.took = time.Since(t0)
	}
	return sim.Verdict{}
}

// geoRun runs the workload once. An untraced run starts from a collected
// heap and reads the live heap at the end of arrivals, both outside the
// timed wall; a traced run forces no collection, so that the CPU profile
// charges the collector only with the program's own garbage.
func geoRun(seed int64, bound *sim.BoundTopology, traced bool) (*geoRound, error) {
	r := &geoRound{reg: metrics.NewRegistry(), bytes: newByteCounter(wire.TypeUpdate, wire.TypeViewChange, wire.TypeNewView)}
	probe := &heapProbe{at: geoDuration}
	var filter sim.Filter = r.bytes
	if !traced {
		filter = probe
		runtime.GC()
	}
	opts := geoOptions(seed, bound, geoDuration, filter, r.reg)
	t0 := time.Now()
	sum, err := load.RunSim(opts)
	r.wall = time.Since(t0) - probe.took
	if err != nil {
		return nil, err
	}
	r.sum, r.heap = sum, probe.bytes
	r.recovery = recoveryMs(sum.Timeline, geoCrashAt)
	return r, nil
}

// checkGeoRound checks one run's accounting and latencies.
func checkGeoRound(o *outcome, r *geoRound, floor geoFloors) {
	s := r.sum
	o.attempted += int(s.Offered)
	o.check(s.Offered == s.Sent+s.Shed, "offered %d != sent %d + shed %d", s.Offered, s.Sent, s.Shed)
	o.check(s.Sent == s.Completed+s.Failed+s.Unfinished, "sent %d != completed %d + failed %d + unfinished %d",
		s.Sent, s.Completed, s.Failed, s.Unfinished)
	if s.Completed < s.Offered {
		o.failed += int(s.Offered - s.Completed)
		o.failures = append(o.failures, fmt.Sprintf("%d of %d offered requests did not complete", s.Offered-s.Completed, s.Offered))
	}
	checkFloor(o, s.LatencyMs.P50, s.Timeline, floor, geoCrashAt)
	o.check(r.recovery > 0, "no recovery observed after the crash at %s", geoCrashAt)
}

// checkFloor fails every reported latency below its floor: the run's
// p50 and each timeline bucket's p50 (the engine reports no per-request
// latencies and no minimum). Buckets that end before the crash were
// served by the initial quorum and are held to its tighter floor.
func checkFloor(o *outcome, p50 float64, timeline []load.BucketStat, floor geoFloors, crash time.Duration) {
	if p50 < floor.any {
		o.fail("p50 %.3f ms below the topology floor %.3f ms", p50, floor.any)
	}
	for _, b := range timeline {
		min := floor.any
		if time.Duration(b.StartS*float64(time.Second))+geoBucket <= crash {
			min = floor.initial
		}
		if b.Completed > 0 && b.P50Ms < min {
			o.fail("bucket at %.2fs: p50 %.3f ms below the floor %.3f ms", b.StartS, b.P50Ms, min)
		}
	}
}

func geoSignature(r *geoRound) string {
	return fmt.Sprintf("%+v %+v %v %d %d", *r.sum, r.sum.LatencyMs, r.sum.Timeline,
		r.reg.Counter("msg.sent.total"), r.reg.Counter("xpaxos.executed"))
}

// recoveryMs finds, on the timeline (buckets keyed by intended send
// time), how long after the crash the per-bucket p99 first came back
// within 1.5× its pre-crash level: the end of that bucket minus the
// crash time. Baseline is the median p99 of the buckets between warm-up
// and crash. Later faults are ignored. 0 means no recovery.
func recoveryMs(timeline []load.BucketStat, crash time.Duration) float64 {
	var pre []float64
	for _, b := range timeline {
		start := time.Duration(b.StartS * float64(time.Second))
		if start >= geoWarmup && start+geoBucket <= crash && b.Completed > 0 {
			pre = append(pre, b.P99Ms)
		}
	}
	if len(pre) == 0 {
		return 0
	}
	limit := 1.5 * median(pre)
	for _, b := range timeline {
		end := time.Duration(b.StartS*float64(time.Second)) + geoBucket
		if end > crash && b.Completed > 0 && b.P99Ms <= limit {
			return ms(end - crash)
		}
	}
	return 0
}

// topologyDelays parses a topology file on its own (regions, the local
// link and the region-pair links, ignoring jitter, which only adds
// delay), places n processes on the least-populated region in
// declaration order, and returns the one-way base delay between two of
// them.
func topologyDelays(src string, n int) (func(a, b int) float64, error) {
	var regions []string
	local := 0.0
	links := map[[2]string]float64{}
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "region":
			regions = append(regions, f[1])
		case "local":
			d, err := parseMs(f[1])
			if err != nil {
				return nil, err
			}
			local = d
		case "link":
			ab, err := parseMs(f[3])
			if err != nil {
				return nil, err
			}
			ba := ab
			if len(f) > 4 && f[4] != "jitter" {
				if ba, err = parseMs(f[4]); err != nil {
					return nil, err
				}
			}
			links[[2]string{f[1], f[2]}] = ab
			links[[2]string{f[2], f[1]}] = ba
		}
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("topology declares no regions")
	}
	region := make([]string, n+1)
	pop := map[string]int{}
	for p := 1; p <= n; p++ {
		best := regions[0]
		for _, r := range regions[1:] {
			if pop[r] < pop[best] {
				best = r
			}
		}
		region[p] = best
		pop[best]++
	}
	return func(a, b int) float64 {
		if region[a] == region[b] {
			return local
		}
		return links[[2]string{region[a], region[b]}]
	}, nil
}

// geoFloors holds the latency floors the geo checks use.
type geoFloors struct {
	any     float64 // any leader and quorum
	initial float64 // the default quorum p1..pq led by p1, before the crash
}

func newGeoFloors(src string) (geoFloors, error) {
	q := geoN - (geoN-1)/3
	delay, err := topologyDelays(src, geoN)
	if err != nil {
		return geoFloors{}, err
	}
	initial := make([]int, q)
	for i := range initial {
		initial[i] = i + 1
	}
	return geoFloors{any: latencyFloor(geoN, q, delay), initial: quorumFloor(1, initial, delay)}, nil
}

func parseMs(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1}, {"us", 1e-3}, {"s", 1e3}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("bad delay %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("bad delay %q", s)
}
