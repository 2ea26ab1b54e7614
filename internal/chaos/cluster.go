package chaos

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/logging"
	"quorumselect/internal/obs/tracer"
	"quorumselect/internal/pbftlite"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/simcluster"
	"quorumselect/internal/storage"
	"quorumselect/internal/tendermint"
	"quorumselect/internal/trace"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// Protocol names a cluster composition the harness can fuzz.
type Protocol string

// The compositions under test.
const (
	// ProtocolQS is the core-only quorum-selection stack (no
	// application): Figure 1 without an SMR on top. The only cluster
	// whose crash faults may restart, because Host.Init rebuilds all
	// protocol state from scratch.
	ProtocolQS Protocol = "qs"
	// ProtocolXPaxos is XPaxos composed with quorum selection.
	ProtocolXPaxos Protocol = "xpaxos"
	// ProtocolPBFT is the PBFT-style ActiveQuorum replica composed with
	// quorum selection. It has no view-change recovery for dropped
	// slots, so the harness checks safety only.
	ProtocolPBFT Protocol = "pbftlite"
	// ProtocolTendermint is the tendermint-style replica composed with
	// quorum selection.
	ProtocolTendermint Protocol = "tendermint"
)

// AllProtocols returns every protocol, in stable order.
func AllProtocols() []Protocol {
	return []Protocol{ProtocolQS, ProtocolXPaxos, ProtocolPBFT, ProtocolTendermint}
}

// ParseProtocols parses a comma-separated protocol list; "all" or ""
// selects every protocol.
func ParseProtocols(s string) ([]Protocol, error) { return parseList(s, AllProtocols(), "protocol") }

// parseList parses a comma-separated list of known names; "all" or ""
// selects all of them.
func parseList[T ~string](s string, all []T, kind string) ([]T, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return all, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v := T(strings.TrimSpace(part))
		if !slices.Contains(all, v) {
			return nil, fmt.Errorf("chaos: unknown %s %q", kind, v)
		}
		out = append(out, v)
	}
	return out, nil
}

// restartable reports whether crash faults may restart processes of
// this protocol. The core-only stack restarts stateless by design;
// xpaxos and pbftlite restart by recovering their durable state from a
// per-member storage backend (see durable). Tendermint has no durable
// layer yet, so its crashes stay permanent.
func (p Protocol) restartable() bool {
	return p == ProtocolQS || p == ProtocolXPaxos || p == ProtocolPBFT
}

// durable reports whether the protocol's members are composed with a
// storage backend, making crash-restart recovery meaningful.
func (p Protocol) durable() bool { return p == ProtocolXPaxos || p == ProtocolPBFT }

// smr reports whether the protocol carries a replicated history.
func (p Protocol) smr() bool { return p != ProtocolQS }

// checksLiveness reports whether the harness may demand post-fault
// progress. pbftlite is excluded: without view changes, one dropped
// PRE-PREPARE stalls in-order execution forever by design.
func (p Protocol) checksLiveness() bool {
	return p == ProtocolXPaxos || p == ProtocolTendermint
}

// settles reports whether the composition quiesces once faults stop,
// which is what the quorum-selection Agreement and Termination checks
// assume. pbftlite is excluded for the same reason it skips liveness: a
// slot stuck on a dropped PRE-PREPARE keeps failing protocol-level
// expectations forever, so suspicions — and with them quorums — keep
// churning by design and never converge.
func (p Protocol) settles() bool { return p != ProtocolPBFT }

// member is one process of a chaos cluster: the protocol-generic
// inspection hooks the checkers use.
type member struct {
	host    *host.Host
	submit  func(*wire.Request)
	history func() []xpaxos.Execution
}

// cluster is one simulated system under chaos: n composed processes on
// the shared harness, plus the run's recorders.
type cluster struct {
	*simcluster.Cluster
	cfg     ids.Config
	members map[ids.ProcessID]*member
	rec     *trace.Recorder
	spans   *tracer.Tracer
}

// newCluster builds the protocol's composition for every process and
// wires it into a seeded simulated network. All runs authenticate with
// a real (HMAC) ring: chaos mutates frames, and only unforgeable
// signatures make "a corrupted signed message is dropped, not
// attributed" hold the way the paper assumes.
func newCluster(cfg ids.Config, run Config, seed int64, filter sim.Filter) *cluster {
	c := &cluster{
		cfg:     cfg,
		members: make(map[ids.ProcessID]*member, cfg.N),
		spans:   tracer.New(0),
	}
	// The recorder's clock closes over the cluster, which is assigned
	// right after — by the time anything logs, it is set.
	c.rec = trace.NewRecorder(func() time.Duration { return c.Net.Now() }, logging.LevelDebug)
	c.Cluster = simcluster.New(simcluster.Options{
		Config: cfg,
		Sim: sim.Options{
			Metrics:      run.Metrics,
			Seed:         seed,
			Filter:       filter,
			Auth:         crypto.NewHMACRing(cfg, []byte("chaos-master")),
			Logger:       c.rec,
			Tracer:       c.spans,
			AllowReorder: run.Reorder,
			AsyncVerify:  run.AsyncVerify,
		},
		Topology: run.Topology,
		Durable:  run.Protocol.durable(),
		New: func(p ids.ProcessID, opts core.NodeOptions) runtime.Node {
			node, m := newMember(run, opts)
			c.members[p] = m
			return node
		},
	})
	return c
}

// newMember composes one process of the run's protocol. A durable
// member's backend is inherited from a crashed predecessor on restart.
func newMember(run Config, opts core.NodeOptions) (runtime.Node, *member) {
	if b, ok := opts.Storage.(*storage.MemBackend); ok && run.TamperSkipSync {
		b.SetSkipSync(true)
	}
	switch run.Protocol {
	case ProtocolQS:
		n := core.NewNode(opts)
		return n, &member{host: n.Host}
	case ProtocolXPaxos:
		n, r := xpaxos.NewQSNode(xpaxos.Options{
			CheckpointInterval: 8,
			BatchSize:          run.BatchSize,
			Window:             run.Window,
		}, opts)
		return n, &member{host: n.Host, submit: r.Submit, history: r.Executions}
	case ProtocolPBFT:
		n, r := pbftlite.NewQSNode(pbftlite.Options{}, opts)
		return n, &member{host: n.Host, submit: r.Submit, history: r.Executions}
	case ProtocolTendermint:
		n, r := tendermint.NewQSNode(tendermint.Options{
			BatchSize: run.BatchSize,
		}, opts)
		return n, &member{host: n.Host, submit: r.Submit, history: r.Executions}
	default:
		panic(fmt.Sprintf("chaos: unknown protocol %q", run.Protocol))
	}
}
