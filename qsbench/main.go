// Command qsbench is the repository benchmark. It drives the program's
// entry points on three workloads, checks every output against a
// computation made apart from the program, and prints one JSON result
// as the last line of standard output.
//
//	bash qsbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//   - lan-commit: four transport.Hosts over loopback TCP, closed loop of
//     32 clients against the XPaxos leader.
//   - geo-failover: load.RunSim on the geo3 WAN topology with a leader
//     crash and restart, then a growing timing fault.
//   - selection-scale: Algorithm 1 at n=128 after a crash, and both
//     selection algorithms under the paper's adversaries at f=10.
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) first repeats the untraced measurement, then runs the
// workload again with timing wrappers, a CPU profile and registry
// readings switched on, prints both runs' end-to-end numbers and their
// difference (the tracing overhead), and reports the per-layer metrics.
//
// README.md in this directory documents the workloads, the metrics and
// what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// e2eUnits lists the end-to-end metrics with their units; every
// workload reports all of them (README.md gives each one's meaning per
// workload).
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"p50_ms":           "ms",
	"p99_ms":           "ms",
	"heap_retained_mb": "MB",
}

// params are the command-line inputs of one run.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root (inputs such as topologies)
}

// outcome is what one pass of a workload produced.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	// counts are registry message counts of deterministic workloads,
	// compared between the untraced and the traced pass.
	counts map[string]int64
	notes  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int64{}}
}

// fail records a failed check as one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check records a failed operation unless ok holds.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(format, args...)
	}
}

// workloads maps each workload name to one pass of it; traced passes
// switch on the wrappers, the profile and the per-layer readings.
var workloads = map[string]func(p params, traced bool) (*outcome, error){
	"lan-commit":      runLAN,
	"geo-failover":    runGeo,
	"selection-scale": runSelection,
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "lan-commit, geo-failover or selection-scale")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&p.seconds, "seconds", 10, "measured time of one pass, in wall seconds")
	flag.IntVar(&trace, "trace", 0, "1: add a traced pass and report per-layer metrics")
	flag.StringVar(&p.root, "root", ".", "repository root")
	flag.Parse()
	p.trace = trace == 1
	if err := run(p); err != nil {
		fmt.Fprintln(os.Stderr, "qsbench:", err)
		os.Exit(1)
	}
}

func run(p params) error {
	pass, ok := workloads[p.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", p.workload)
	}
	if p.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", p.seconds)
	}
	// Inputs must exist before anything runs: a tree that holds only
	// the benchmark cannot be measured.
	if _, err := os.Stat(filepath.Join(p.root, "go.mod")); err != nil {
		return fmt.Errorf("no program source under %s: %w", p.root, err)
	}
	fmt.Printf("qsbench workload=%s seed=%d seconds=%d trace=%v\n", p.workload, p.seed, p.seconds, p.trace)

	base, err := pass(p, false)
	if err != nil {
		return err
	}
	report(base)
	res := base
	metrics := map[string]map[string]any{}
	if !p.trace {
		for name, unit := range e2eUnits {
			v, ok := base.e2e[name]
			if !ok {
				return fmt.Errorf("workload %s did not report %s", p.workload, name)
			}
			metrics[name] = map[string]any{"value": v, "unit": unit}
		}
	} else {
		traced, err := pass(p, true)
		if err != nil {
			return err
		}
		report(traced)
		printOverhead(base, traced)
		for name, want := range base.counts {
			if got := traced.counts[name]; got != want {
				traced.fail("registry count %s: untraced %d, traced %d", name, want, got)
			}
		}
		res = mergeOutcomes(base, traced)
		for name, unit := range layerUnits {
			metrics[name] = map[string]any{"value": traced.layer[name], "unit": unit}
		}
	}
	for _, f := range res.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		os.Exit(2)
	}
	return nil
}

func mergeOutcomes(a, b *outcome) *outcome {
	m := newOutcome()
	m.attempted = a.attempted + b.attempted
	m.failed = a.failed + b.failed
	m.failures = append(append(m.failures, a.failures...), b.failures...)
	return m
}

// report prints one pass's end-to-end numbers and notes.
func report(o *outcome) {
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	for _, name := range sortedKeys(o.e2e) {
		fmt.Printf("  e2e %-18s %14.4f %s\n", name, o.e2e[name], e2eUnits[name])
	}
	fmt.Printf("  attempted=%d failed=%d\n", o.attempted, o.failed)
}

// printOverhead sets the traced pass's end-to-end numbers next to the
// untraced pass's; the relative difference is the cost of tracing.
func printOverhead(base, traced *outcome) {
	fmt.Println("tracing overhead (traced vs untraced pass):")
	for _, name := range sortedKeys(base.e2e) {
		b, t := base.e2e[name], traced.e2e[name]
		if _, ok := traced.e2e[name]; !ok {
			fmt.Printf("  %-18s untraced %14.4f  traced: not taken (its forced collections would be profiled)\n", name, b)
			continue
		}
		pct := 0.0
		if b != 0 {
			pct = 100 * (t - b) / b
		}
		fmt.Printf("  %-18s untraced %14.4f  traced %14.4f  %+7.1f%%\n", name, b, t, pct)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// deadline returns the end of a measured window of the run's length.
func deadline(p params) time.Time {
	return time.Now().Add(time.Duration(p.seconds) * time.Second)
}
