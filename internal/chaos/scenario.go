package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
	"quorumselect/internal/simcluster"
)

// FaultClass names one of the paper's §II failure classes as the
// scenario generator injects it. Every class is scoped to the
// scenario's faulty set, so at most f processes misbehave and the
// protocols' safety claims must hold.
type FaultClass string

// The fault taxonomy. See DESIGN.md §9 for the mapping to the paper's
// failure classes.
const (
	// FaultCrash stops a process via the host lifecycle (crash failure);
	// on a restart-capable cluster it may later come back, recovering
	// whatever its durable storage holds.
	FaultCrash FaultClass = "crash"
	// FaultCrashRestart hard-crashes a process — its storage backend
	// drops every write not yet durably synced, modeling power loss —
	// and always restarts it, forcing a recovery from the surviving
	// WAL + snapshot. On a non-restartable protocol it degrades to a
	// permanent hard crash.
	FaultCrashRestart FaultClass = "crash-restart"
	// FaultOmission drops one in every k messages from a faulty process
	// (repeated omission failure).
	FaultOmission FaultClass = "omission"
	// FaultBurst drops everything from a faulty process during the On
	// part of an On/Off cycle (repeated omission with unbounded gaps).
	FaultBurst FaultClass = "burst"
	// FaultPartition severs all links between one faulty process and the
	// rest until the window closes (link omission; opens and heals).
	FaultPartition FaultClass = "partition"
	// FaultTiming adds bounded pseudo-random delay to a faulty process's
	// messages (timing failure).
	FaultTiming FaultClass = "timing"
	// FaultIncreasingTiming adds monotonically growing delay (the
	// paper's increasing timing failure) while the window is open.
	FaultIncreasingTiming FaultClass = "increasing-timing"
	// FaultDuplicate replays frames from a faulty process (faulty link).
	FaultDuplicate FaultClass = "duplicate"
	// FaultMutate corrupts frames from a faulty process with
	// wire.MutateFrame (commission failure: flipped fields, forged
	// signatures, truncations).
	FaultMutate FaultClass = "mutate"
)

// AllFaults returns every fault class, in stable order.
func AllFaults() []FaultClass {
	return []FaultClass{
		FaultCrash, FaultCrashRestart, FaultOmission, FaultBurst,
		FaultPartition, FaultTiming, FaultIncreasingTiming,
		FaultDuplicate, FaultMutate,
	}
}

// ParseFaults parses a comma-separated fault-class list ("crash,mutate");
// "all" or "" selects every class.
func ParseFaults(s string) ([]FaultClass, error) { return parseList(s, AllFaults(), "fault class") }

// Scenario is one fully derived fault schedule: everything RunSeed
// needs to replay a run is determined by (Config, Seed).
type Scenario struct {
	Seed int64
	// Faulty is the set of misbehaving processes, |Faulty| ≤ f.
	Faulty ids.ProcSet
	// Crashes lists the crash/restart churn (faults of class crash). A
	// restart is only planned on a restart-capable cluster.
	Crashes []simcluster.Crash
	// Filter is the composed network-fault filter for the run.
	Filter sim.Filter
	// FaultEnd is when all fault windows have closed (crashes excepted:
	// an un-restarted crash is permanent).
	FaultEnd time.Duration
	// Desc is the deterministic, human-readable fault schedule, one
	// line per faulty process.
	Desc []string
}

// Restarted reports whether p crashes and later restarts in this
// scenario.
func (s *Scenario) Restarted(p ids.ProcessID) bool {
	for _, c := range s.Crashes {
		if c.Proc == p && c.RestartAt > 0 {
			return true
		}
	}
	return false
}

// CrashedForever reports whether p crashes and never restarts.
func (s *Scenario) CrashedForever(p ids.ProcessID) bool {
	for _, c := range s.Crashes {
		if c.Proc == p && c.RestartAt == 0 {
			return true
		}
	}
	return false
}

// GenerateScenario derives the fault schedule for one seed. The same
// (cfg, seed, classes, restartable, faultEnd) always produces the same
// scenario: all randomness flows from one source, and filters that need
// randomness at run time get private sources derived from the seed.
func GenerateScenario(cfg ids.Config, seed int64, classes []FaultClass, restartable bool, faultEnd time.Duration) *Scenario {
	if len(classes) == 0 {
		classes = AllFaults()
	}
	rng := rand.New(rand.NewSource(seed))
	sc := &Scenario{Seed: seed, Faulty: ids.NewProcSet(), FaultEnd: faultEnd}

	if cfg.F == 0 {
		sc.Filter = adversary.Chain()
		sc.Desc = []string{"no faults (f=0)"}
		return sc
	}

	// Choose 1..f faulty processes.
	nFaulty := 1 + rng.Intn(cfg.F)
	perm := rng.Perm(cfg.N)
	var faulty []ids.ProcessID
	for _, i := range perm[:nFaulty] {
		p := ids.ProcessID(i + 1)
		faulty = append(faulty, p)
		sc.Faulty.Add(p)
	}
	sort.Slice(faulty, func(i, j int) bool { return faulty[i] < faulty[j] })

	// One fault class per faulty process, each inside its own window.
	var filters []sim.Filter
	for _, p := range faulty {
		class := classes[rng.Intn(len(classes))]
		from := time.Duration(rng.Int63n(int64(faultEnd / 2)))
		until := from + faultEnd/8 + time.Duration(rng.Int63n(int64(faultEnd-from-faultEnd/8)))
		one := ids.NewProcSet(p)
		window := func(inner sim.Filter) sim.Filter {
			return &adversary.Window{From: from, Until: until, Inner: inner}
		}
		switch class {
		case FaultCrash:
			plan := simcluster.Crash{Proc: p, At: from}
			if restartable && rng.Intn(2) == 0 {
				plan.RestartAt = until
				sc.Desc = append(sc.Desc, fmt.Sprintf("%s: crash at %s, restart at %s", p, from, until))
			} else {
				sc.Desc = append(sc.Desc, fmt.Sprintf("%s: crash at %s", p, from))
			}
			sc.Crashes = append(sc.Crashes, plan)
		case FaultCrashRestart:
			plan := simcluster.Crash{Proc: p, At: from, Hard: true}
			if restartable {
				plan.RestartAt = until
				sc.Desc = append(sc.Desc, fmt.Sprintf("%s: hard crash at %s, recover at %s", p, from, until))
			} else {
				sc.Desc = append(sc.Desc, fmt.Sprintf("%s: hard crash at %s (protocol not restartable)", p, from))
			}
			sc.Crashes = append(sc.Crashes, plan)
		case FaultOmission:
			k := 1 + rng.Intn(4)
			filters = append(filters, window(adversary.NewRepeatedOmission(one, k)))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: omission 1/%d in [%s,%s)", p, k, from, until))
		case FaultBurst:
			on := 100*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
			off := 100*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
			filters = append(filters, window(&adversary.BurstOmission{Faulty: one, On: on, Off: off}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: burst omission %s on/%s off in [%s,%s)", p, on, off, from, until))
		case FaultPartition:
			filters = append(filters, window(&adversary.Partition{Group: one}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: partitioned in [%s,%s)", p, from, until))
		case FaultTiming:
			max := 50*time.Millisecond + time.Duration(rng.Int63n(int64(250*time.Millisecond)))
			filters = append(filters, window(adversary.NewJitterDelay(one, max, rng.Int63())))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: jitter delay <%s in [%s,%s)", p, max, from, until))
		case FaultIncreasingTiming:
			step := 100*time.Millisecond + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
			filters = append(filters, window(&adversary.SteppedDelay{Faulty: one, Step: step, Every: 500 * time.Millisecond}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: stepped delay +%s/500ms in [%s,%s)", p, step, from, until))
		case FaultDuplicate:
			k := 1 + rng.Intn(3)
			filters = append(filters, window(&adversary.Duplicator{Faulty: one, Every: k}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: duplicate 1/%d in [%s,%s)", p, k, from, until))
		case FaultMutate:
			k := 1 + rng.Intn(3)
			filters = append(filters, window(&adversary.Mutator{
				Faulty: one, Every: k, Rng: rand.New(rand.NewSource(rng.Int63())),
			}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: mutate 1/%d in [%s,%s)", p, k, from, until))
		}
	}
	sc.Filter = adversary.Chain(filters...)
	return sc
}
