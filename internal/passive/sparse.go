package passive

import (
	"runtime"
	"sync"

	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// The flow network of Section 5.1 nominally contains one ∞-capacity
// edge per dominating pair (p, q) ∈ P0^con × P1^con — Θ(n²) edges on
// adversarial inputs, which dominates both memory and max-flow time.
// buildGraph replaces them by one of two equivalent sparse networks.
// On the kernel path at d ≥ 3 without a caller decomposition
// (passive.Solve, and Problems that hold the n×n matrix: dense,
// adopted, or transient for an exact decomposition) the ∞ edges are
// the cover relation of the contending points (domgraph.CoverEdges),
// whose m×m closure takes at most half the bytes of that matrix.
// Everywhere else a chain cover is at hand — d ≤ 2, a supplied
// Options.Chains, Problems past the exact-decomposition limit or the
// dense-footprint guard — and this file's builder runs instead, in
// O(m·w) time and memory with no quadratic closure: its ∞ edges follow
// the chain cover of the contending points:
//
//   - consecutive links inside each chain (higher → lower, plus the
//     reverse link between coordinate-equal neighbours);
//   - chain-transition cross links: walking a home chain upwards, each
//     member i and every other chain c, the members of c that i
//     dominates form a prefix, and that prefix only grows along the
//     walk (i dominates everything its chain predecessor dominates).
//     The link i → (last member of the prefix) is emitted only where
//     the prefix grew; otherwise the path i → predecessor → same
//     target already exists.
//
// Two facts make the substitution exact:
//
//  1. soundness — every ∞ edge (a, b) added satisfies a ⪰ b, so any
//     source→sink path still witnesses a dominating pair
//     (label-0 point) ⪰ (label-1 point) by transitivity;
//  2. completeness — if a ⪰ b then b is reachable from a through ∞
//     edges: within a chain via consecutive links; across chains a
//     walks down its home chain to the first member j whose prefix in
//     b's chain reached as far as a's, follows j's cross link, and
//     walks down b's chain to b.
//
// Hence reachability among contending points equals dominance, the two
// networks admit exactly the same source-sink cuts made of finite
// edges, and the min cut — which never uses ∞ edges (Lemma 18) — is
// unchanged; so is the minimal min cut, the one the cut decode reads.
//
// Over a cover of w chains the contending scan costs O(n·w·d). The
// ∞-edge builder spends one dominance test per (contending point,
// other chain) pair plus a binary search per emitted cross link:
// O(m·w + E·log(m/w)) tests for m contending points and E ≤ m·w edges.
// The bound is loose in practice: on 5%-noise planted data at
// n=16384, d=3 (w≈1.16k, m≈15k) the builder emits ≈2.7M edges where a
// link per (point, dominated chain) gives ≈4.6M; the cover relation of
// the same points has ≈0.43M, but its closure costs O(m²) time and
// m²/8 bytes where this builder needs O(m·w). The home chains are
// split into GOMAXPROCS contiguous blocks built concurrently; the
// blocks are read back in chain order, so the edge sequence does not
// depend on the core count.

// contendingPoints computes the contending set of Section 5.1 in
// O(n·w·d) time. Along an ascending chain the members a point
// dominates form a prefix and the members dominating it a suffix
// (transitivity), so a label-0 point contends iff it dominates the
// first label-1 member of some chain, and a label-1 point iff the last
// label-0 member of some chain dominates it. One pass collects those
// at most w chain ends per label; every point then tests only them.
func contendingPoints(ws geom.WeightedSet, cover [][]int) []bool {
	var firstOnes, lastZeros []geom.Point
	for _, chain := range cover {
		for _, idx := range chain {
			if ws[idx].Label == geom.Positive {
				firstOnes = append(firstOnes, ws[idx].P)
				break
			}
		}
		for k := len(chain) - 1; k >= 0; k-- {
			if ws[chain[k]].Label == geom.Negative {
				lastZeros = append(lastZeros, ws[chain[k]].P)
				break
			}
		}
	}
	out := make([]bool, len(ws))
	for i := range ws {
		p := ws[i].P
		switch ws[i].Label {
		case geom.Negative:
			for _, q := range firstOnes {
				if geom.Dominates(p, q) {
					out[i] = true
					break
				}
			}
		case geom.Positive:
			for _, q := range lastZeros {
				if geom.Dominates(q, p) {
					out[i] = true
					break
				}
			}
		}
	}
	return out
}

// sparseInfinityEdges emits the ∞ edges connecting the contending
// points so that reachability equals dominance restricted to the
// contending set. cover is a valid chain decomposition of all points
// (ascending chains), and dominates(i, j) reports point i ⪰ point j,
// reflexive, so coordinate-equal points dominate each other. The
// edges come back in blocks; their concatenation is the edge sequence.
func sparseInfinityEdges(cover [][]int, contending []bool, dominates func(i, j int) bool) [][]domgraph.Edge {
	// Restrict each chain to its contending members, preserving order;
	// chains left empty take no part.
	var restricted [][]int32
	members := 0
	for _, chain := range cover {
		var r []int32
		for _, idx := range chain {
			if contending[idx] {
				r = append(r, int32(idx))
			}
		}
		if len(r) > 0 {
			restricted = append(restricted, r)
			members += len(r)
		}
	}
	if len(restricted) == 0 {
		return nil
	}
	// Contiguous blocks of home chains with about equal member counts:
	// a member's work is one pass over the other chains.
	workers := min(runtime.GOMAXPROCS(0), len(restricted))
	bounds := make([]int, 0, workers+1)
	bounds = append(bounds, 0)
	acc := 0
	for c, chain := range restricted {
		acc += len(chain)
		if len(bounds) < workers && acc*workers >= members*len(bounds) {
			bounds = append(bounds, c+1)
		}
	}
	if bounds[len(bounds)-1] != len(restricted) {
		bounds = append(bounds, len(restricted))
	}
	blocks := make([][]domgraph.Edge, len(bounds)-1)
	var wg sync.WaitGroup
	for b := range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocks[b] = chainTransitionEdges(restricted, bounds[b], bounds[b+1], dominates)
		}()
	}
	wg.Wait()
	return blocks
}

// chainTransitionEdges emits the ∞ edges of home chains [lo, hi) of
// restricted: each chain's consecutive links and, member by member in
// ascending order, the cross links where a dominated prefix grew.
func chainTransitionEdges(restricted [][]int32, lo, hi int, dominates func(i, j int) bool) []domgraph.Edge {
	var edges []domgraph.Edge
	pre := make([]int, len(restricted)) // dominated-prefix length per chain
	for c := lo; c < hi; c++ {
		clear(pre)
		home := restricted[c]
		for k, i := range home {
			if k > 0 {
				below := home[k-1]
				edges = append(edges, domgraph.Edge{From: i, To: below})
				// Coordinate-equal neighbours dominate each other, so
				// they also get the reverse link; without it a label-0
				// point could not reach its label-1 duplicate.
				if dominates(int(below), int(i)) {
					edges = append(edges, domgraph.Edge{From: below, To: i})
				}
			}
			for oc, other := range restricted {
				p := pre[oc]
				// One test settles the common case: the prefix did not
				// grow past the predecessor's.
				if oc == c || p == len(other) || !dominates(int(i), int(other[p])) {
					continue
				}
				// other[:p+1] is dominated; find the first member that
				// is not.
				l, r := p+1, len(other)
				for l < r {
					mid := int(uint(l+r) >> 1)
					if dominates(int(i), int(other[mid])) {
						l = mid + 1
					} else {
						r = mid
					}
				}
				pre[oc] = l
				edges = append(edges, domgraph.Edge{From: i, To: other[l-1]})
			}
		}
	}
	return edges
}
