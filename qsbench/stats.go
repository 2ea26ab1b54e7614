package main

import (
	"math"
	"runtime"
	"sort"

	"quorumselect/internal/metrics"
)

// median returns the middle of values (mean of the two middles for an
// even count); 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantileSorted returns the nearest-rank p-th percentile of sorted
// values; 0 for none.
func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sumCounter(regs []*metrics.Registry, name string) int64 {
	var total int64
	for _, r := range regs {
		total += r.Counter(name)
	}
	return total
}

// histMean returns the mean of a registry histogram, 0 when absent.
func histMean(reg *metrics.Registry, name string) float64 {
	h, ok := reg.Hist(name)
	if !ok {
		return 0
	}
	return h.Mean()
}

// liveHeap forces a collection and returns the bytes still reachable.
// The second collection frees what the first only moved to sync.Pool
// victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
