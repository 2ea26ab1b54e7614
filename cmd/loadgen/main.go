// Command loadgen is the open-loop workload driver: Poisson / bursty /
// ramp arrivals with Zipf or uniform key skew, latency measured from
// every request's intended send time (no coordinated omission), and a
// machine-readable JSON summary with timeline buckets and — when a
// fault is injected — a measured recovery time.
//
// Two modes share one workload grammar:
//
//	# Virtual time against a simulated cluster, optionally on a WAN
//	# topology spec, optionally with a generated chaos fault schedule:
//	loadgen -mode sim -arrivals poisson:rate=500 -keys zipf:n=10000,s=1.1 \
//	        -duration 10s -topology examples/topologies/geo3.topo \
//	        -faults crash-restart -fault-end 8s
//
//	# Wall clock against the HTTP frontends of a real TCP cluster
//	# (cmd/xpaxos -shards N):
//	loadgen -mode tcp -targets http://localhost:8300,http://localhost:8301 \
//	        -arrivals poisson:rate=2000 -duration 30s
//
// SIGINT/SIGTERM stop the run early; the summary collected so far is
// still written and the exit code stays 0, mirroring cmd/xpaxos.
// -require-goodput and -require-p99-ms turn the run into a smoke gate:
// the process exits 2 if the bound is violated (the JSON is written
// either way).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"quorumselect/internal/chaos"
	"quorumselect/internal/ids"
	"quorumselect/internal/load"
	"quorumselect/internal/sim"
)

func main() {
	var (
		mode     = flag.String("mode", "sim", "sim (virtual time) or tcp (wall clock against HTTP frontends)")
		arrivals = flag.String("arrivals", "poisson:rate=500", "arrival process spec (poisson:|steady:|burst:|ramp:)")
		keys     = flag.String("keys", "zipf:n=10000,s=1.1", "key-skew spec (uniform:|zipf:|fixed:)")
		seed     = flag.Int64("seed", 1, "workload seed")
		duration = flag.Duration("duration", 10*time.Second, "arrival window")
		inflight = flag.Int("inflight", 256, "max outstanding requests")
		bucket   = flag.Duration("bucket", 500*time.Millisecond, "timeline bucket width")
		topoPath = flag.String("topology", "", "WAN topology spec file (sim mode)")
		outPath  = flag.String("o", "-", "summary JSON destination (- = stdout)")

		// sim mode
		n        = flag.Int("n", 4, "cluster size (sim mode)")
		batch    = flag.Int("batch", 8, "ingress batch size (sim mode)")
		window   = flag.Int("window", 16, "commit pipeline window (sim mode)")
		drain    = flag.Duration("drain", 10*time.Second, "post-window drain bound (sim mode: virtual time)")
		faults   = flag.String("faults", "", "chaos fault classes to inject, e.g. crash-restart (sim mode; empty = none)")
		faultEnd = flag.Duration("fault-end", 0, "when all fault windows must have closed (default duration/2)")
		fseed    = flag.Int64("fault-seed", 7, "fault schedule seed")

		// tcp mode
		targets   = flag.String("targets", "", "comma-separated frontend base URLs (tcp mode)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request timeout (tcp mode)")
		waitReady = flag.Duration("wait-ready", 30*time.Second, "poll targets' /status this long before starting (tcp mode; 0 = skip)")

		reqGoodput = flag.Float64("require-goodput", 0, "exit 2 unless goodput ratio >= this")
		reqP99     = flag.Float64("require-p99-ms", 0, "exit 2 unless p99 <= this many ms")
	)
	flag.Parse()

	arr, err := load.ParseArrivals(*arrivals)
	if err != nil {
		fatal(err)
	}
	ks, err := load.ParseKeys(*keys)
	if err != nil {
		fatal(err)
	}

	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "loadgen: %s — stopping, dumping summary\n", s)
		close(stop)
	}()

	var summary *load.Summary
	switch *mode {
	case "sim":
		summary, err = runSim(simConfig{
			arrivals: arr, keys: ks, seed: *seed, duration: *duration,
			inflight: *inflight, bucket: *bucket, topoPath: *topoPath,
			n: *n, batch: *batch, window: *window, drain: *drain,
			faults: *faults, faultEnd: *faultEnd, faultSeed: *fseed,
			stop: stop,
		})
	case "tcp":
		summary, err = runTCP(tcpConfig{
			arrivals: arr, keys: ks, seed: *seed, duration: *duration,
			inflight: *inflight, bucket: *bucket,
			targets: *targets, timeout: *timeout, waitReady: *waitReady,
			stop: stop,
		})
	default:
		err = fmt.Errorf("unknown -mode %q (want sim or tcp)", *mode)
	}
	if err != nil {
		fatal(err)
	}

	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *outPath == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"loadgen: %s offered=%d completed=%d goodput=%.0f req/s (ratio %.3f) p50=%.1fms p99=%.1fms p999=%.1fms\n",
		summary.Mode, summary.Offered, summary.Completed, summary.GoodputRPS,
		summary.GoodputRatio, summary.LatencyMs.P50, summary.LatencyMs.P99, summary.LatencyMs.P999)
	if f := summary.Fault; f != nil {
		fmt.Fprintf(os.Stderr, "loadgen: fault %q at %.1fs: baseline p99 %.1fms spike %.1fms recovery %.0fms (recovered=%v)\n",
			f.Desc, f.AtS, f.BaselineP99Ms, f.SpikeP99Ms, f.RecoveryMs, f.Recovered)
	}

	failed := false
	if *reqGoodput > 0 {
		if summary.GoodputRatio < *reqGoodput {
			fmt.Fprintf(os.Stderr, "loadgen: REQUIRE goodput>=%.3f: got %.3f\n", *reqGoodput, summary.GoodputRatio)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "loadgen: require goodput>=%.3f ok (%.3f)\n", *reqGoodput, summary.GoodputRatio)
		}
	}
	if *reqP99 > 0 {
		if summary.LatencyMs.P99 > *reqP99 {
			fmt.Fprintf(os.Stderr, "loadgen: REQUIRE p99<=%.1fms: got %.1fms\n", *reqP99, summary.LatencyMs.P99)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "loadgen: require p99<=%.1fms ok (%.1fms)\n", *reqP99, summary.LatencyMs.P99)
		}
	}
	if failed {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
	os.Exit(1)
}

type simConfig struct {
	arrivals load.Arrivals
	keys     load.Keys
	seed     int64
	duration time.Duration
	inflight int
	bucket   time.Duration
	topoPath string

	n, batch, window int
	drain            time.Duration
	faults           string
	faultEnd         time.Duration
	faultSeed        int64
	stop             <-chan struct{}
}

func runSim(c simConfig) (*load.Summary, error) {
	opts := load.SimOptions{
		N:           c.n,
		BatchSize:   c.batch,
		Window:      c.window,
		Arrivals:    c.arrivals,
		Keys:        c.keys,
		Seed:        c.seed,
		Duration:    c.duration,
		Drain:       c.drain,
		MaxInFlight: c.inflight,
		BucketWidth: c.bucket,
		Stop:        c.stop,
	}
	if c.topoPath != "" {
		topo, err := sim.LoadTopology(c.topoPath)
		if err != nil {
			return nil, err
		}
		bound, err := topo.Bind(c.n)
		if err != nil {
			return nil, err
		}
		opts.Topology = bound
	}
	if c.faults != "" {
		classes, err := chaos.ParseFaults(c.faults)
		if err != nil {
			return nil, err
		}
		end := c.faultEnd
		if end <= 0 {
			end = c.duration / 2
		}
		cfg, err := ids.NewConfig(c.n, (c.n-1)/3)
		if err != nil {
			return nil, err
		}
		sc := chaos.GenerateScenario(cfg, c.faultSeed, classes, true, end)
		opts.Filter = sc.Filter
		opts.Crashes = sc.Crashes
		opts.FaultDesc = strings.Join(sc.Desc, "; ")
		// Anchor the recovery analysis at the first crash when there is
		// one; pure network-fault schedules start their windows at
		// unexposed times, so anchor those at the window midpoint's
		// earliest possible start (0) — the timeline still shows them.
		opts.FaultAt = 0
		for i, plan := range sc.Crashes {
			if i == 0 || plan.At < opts.FaultAt {
				opts.FaultAt = plan.At
			}
		}
	}
	return load.RunSim(opts)
}

type tcpConfig struct {
	arrivals load.Arrivals
	keys     load.Keys
	seed     int64
	duration time.Duration
	inflight int
	bucket   time.Duration

	targets   string
	timeout   time.Duration
	waitReady time.Duration
	stop      <-chan struct{}
}

// httpTarget round-robins submissions across the cluster's frontends.
type httpTarget struct {
	urls   []string
	next   uint64
	client *http.Client
}

func (t *httpTarget) Do(ctx context.Context, key string, op []byte) error {
	i := atomic.AddUint64(&t.next, 1)
	url := t.urls[i%uint64(len(t.urls))] + "/submit"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(op))
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

func runTCP(c tcpConfig) (*load.Summary, error) {
	if c.targets == "" {
		return nil, fmt.Errorf("tcp mode needs -targets")
	}
	var urls []string
	for _, u := range strings.Split(c.targets, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("no usable targets in %q", c.targets)
	}
	target := &httpTarget{
		urls: urls,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        c.inflight * 2,
			MaxIdleConnsPerHost: c.inflight * 2,
		}},
	}
	if c.waitReady > 0 {
		if err := waitReady(urls, target.client, c.waitReady, c.stop); err != nil {
			return nil, err
		}
	}
	gen, err := load.NewGenerator(load.Options{
		Arrivals:    c.arrivals,
		Keys:        c.keys,
		Seed:        c.seed,
		Duration:    c.duration,
		MaxInFlight: c.inflight,
		Timeout:     c.timeout,
		BucketWidth: c.bucket,
	})
	if err != nil {
		return nil, err
	}
	go func() {
		<-c.stop
		gen.Stop()
	}()
	return gen.Run(context.Background(), target)
}

// waitReady polls every frontend's /status until all answer 200, so a
// smoke run can launch servers and loadgen together.
func waitReady(urls []string, client *http.Client, budget time.Duration, stop <-chan struct{}) error {
	deadline := time.Now().Add(budget)
	for {
		ready := 0
		for _, u := range urls {
			resp, err := client.Get(u + "/status")
			if err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ready++
				}
			}
		}
		if ready == len(urls) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("targets not ready after %s (%d/%d up)", budget, ready, len(urls))
		}
		select {
		case <-stop:
			return fmt.Errorf("stopped while waiting for targets")
		case <-time.After(250 * time.Millisecond):
		}
	}
}
