package main

// The oracles below are written from the paper and the program's
// documented semantics, not from its code: each recomputes an expected
// output on its own so that a check compares two independent answers.

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// kvModel is an independent model of the KV state machine's documented
// operations: "set k v", "append k v", "get k" (NIL when absent) and
// "del k"; anything else echoes.
type kvModel struct {
	data map[string]string
}

func newKVModel() *kvModel { return &kvModel{data: map[string]string{}} }

// apply executes op and returns the result the program must report.
func (m *kvModel) apply(op string) string {
	f := strings.SplitN(op, " ", 3)
	switch {
	case len(f) == 3 && f[0] == "set":
		m.data[f[1]] = f[2]
		return "OK"
	case len(f) == 3 && f[0] == "append":
		m.data[f[1]] += f[2]
		return "OK"
	case len(f) == 2 && f[0] == "get":
		v, ok := m.data[f[1]]
		if !ok {
			return "NIL"
		}
		return v
	case len(f) == 2 && f[0] == "del":
		delete(m.data, f[1])
		return "OK"
	}
	return "ECHO " + op
}

// hashResult fingerprints a result so a run need not keep every value.
func hashResult(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// suspectAdjacency builds the suspect graph of §VI-B from a suspicion
// matrix: {l,k} is an edge iff l suspected k, or k suspected l, in
// epoch e or later. Processes are numbered from 1; adj[i][j] refers to
// processes i+1 and j+1.
func suspectAdjacency(matrix [][]uint64, epoch uint64) [][]bool {
	n := len(matrix)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for l := 0; l < n; l++ {
		for k := 0; k < n; k++ {
			if l != k && matrix[l][k] >= epoch && matrix[l][k] > 0 {
				adj[l][k], adj[k][l] = true, true
			}
		}
	}
	return adj
}

// lexFirstIndependentSet returns the lexicographically-first set of q
// pairwise non-adjacent processes (1-based), by exhaustive search in
// lexicographic order: the first complete set the search reaches is
// the answer.
func lexFirstIndependentSet(adj [][]bool, q int) ([]int, bool) {
	n := len(adj)
	chosen := make([]int, 0, q)
	var search func(next int) bool
	search = func(next int) bool {
		if len(chosen) == q {
			return true
		}
		for v := next; v <= n-(q-len(chosen)); v++ {
			ok := true
			for _, c := range chosen {
				if adj[c][v] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen = append(chosen, v)
			if search(v + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	if !search(0) {
		return nil, false
	}
	out := make([]int, q)
	for i, v := range chosen {
		out[i] = v + 1
	}
	return out, true
}

// verifyQuorum checks a quorum the program issued against the suspect
// graph: it must have size q, contain no suspected pair, and equal the
// lexicographically-first independent set.
func verifyQuorum(adj [][]bool, q int, members []int) error {
	if len(members) != q {
		return fmt.Errorf("quorum %v has size %d, want %d", members, len(members), q)
	}
	for i, a := range members {
		for _, b := range members[i+1:] {
			if adj[a-1][b-1] {
				return fmt.Errorf("quorum %v contains the suspected pair (%d,%d)", members, a, b)
			}
		}
	}
	want, ok := lexFirstIndependentSet(adj, q)
	if !ok {
		return fmt.Errorf("no independent set of size %d exists, yet %v was issued", q, members)
	}
	for i := range want {
		if want[i] != members[i] {
			return fmt.Errorf("quorum %v is not the lexicographically-first independent set %v", members, want)
		}
	}
	return nil
}

// binomial computes C(n, k).
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

// The paper's bounds on quorum churn.
func theorem3Bound(f int) int    { return f * (f + 1) }      // Algorithm 1, per epoch
func theorem4Bound(f int) int    { return binomial(f+2, 2) } // forced proposals
func theorem9Bound(f int) int    { return 3*f + 1 }          // Follower Selection, per epoch
func corollary10Bound(f int) int { return 6*f + 2 }          // Follower Selection, in total

// churnVerdict checks adversary results against the bounds.
func checkAlgorithm1(f, maxPerEpoch, proposed int) error {
	if maxPerEpoch > theorem3Bound(f) {
		return fmt.Errorf("Algorithm 1 issued %d quorums in one epoch, above f(f+1)=%d", maxPerEpoch, theorem3Bound(f))
	}
	if proposed < theorem4Bound(f) {
		return fmt.Errorf("Algorithm 1 proposals %d did not reach C(f+2,2)=%d", proposed, theorem4Bound(f))
	}
	return nil
}

func checkFollowerSelection(f, maxPerEpoch, total int) error {
	if maxPerEpoch > theorem9Bound(f) {
		return fmt.Errorf("Follower Selection issued %d quorums in one epoch, above 3f+1=%d", maxPerEpoch, theorem9Bound(f))
	}
	if total > corollary10Bound(f) {
		return fmt.Errorf("Follower Selection issued %d quorums in total, above 6f+2=%d", total, corollary10Bound(f))
	}
	return nil
}

// quorumFloor is the least virtual time a request can take to execute
// when leader L runs quorum Q on a WAN where the one-way delay from a to
// b is at least delay(a,b): L sends PREPARE to every member k and every
// member sends COMMIT to each replica r, which executes once it holds
// all of them; the first replica to execute completes the request. A
// replica's messages to itself take no time.
func quorumFloor(leader int, members []int, delay func(a, b int) float64) float64 {
	d := func(a, b int) float64 {
		if a == b {
			return 0
		}
		return delay(a, b)
	}
	best := -1.0
	for _, r := range members {
		worst := 0.0
		for _, k := range members {
			if t := d(leader, k) + d(k, r); t > worst {
				worst = t
			}
		}
		if best < 0 || worst < best {
			best = worst
		}
	}
	return best
}

// latencyFloor is quorumFloor minimised over every quorum of size q
// among n processes and every leader in it: a bound that holds whatever
// quorum the program selects.
func latencyFloor(n, q int, delay func(a, b int) float64) float64 {
	best := -1.0
	members := make([]int, 0, q)
	var walk func(next int)
	walk = func(next int) {
		if len(members) == q {
			for _, leader := range members {
				if f := quorumFloor(leader, members, delay); best < 0 || f < best {
					best = f
				}
			}
			return
		}
		for v := next; v <= n; v++ {
			members = append(members, v)
			walk(v + 1)
			members = members[:len(members)-1]
		}
	}
	walk(1)
	return best
}
