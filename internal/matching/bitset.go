package matching

import (
	"fmt"
	"math/bits"
)

// BitsetBipartite is a bipartite graph whose left-side adjacency is a
// packed bit matrix: row u holds one bit per right vertex. It is the
// dense-graph companion of Bipartite, built for the chain
// decomposition's dominance DAG, where the adjacency is produced as a
// bit matrix by the domgraph kernel and materializing O(n²) adjacency
// lists would dwarf every other cost.
type BitsetBipartite struct {
	nLeft, nRight int
	words         int // words per row: ceil(nRight/64)
	adj           []uint64
}

// NewBitsetBipartite creates an empty packed bipartite graph.
func NewBitsetBipartite(nLeft, nRight int) *BitsetBipartite {
	if nLeft < 0 || nRight < 0 {
		panic(fmt.Sprintf("matching: negative vertex count (%d, %d)", nLeft, nRight))
	}
	words := (nRight + 63) / 64
	return &BitsetBipartite{nLeft: nLeft, nRight: nRight, words: words, adj: make([]uint64, nLeft*words)}
}

// BitsetFromRows adopts a flat row-major adjacency bitset (nLeft rows
// of ceil(nRight/64) words) without copying; the caller must not
// mutate it while the graph is in use. Bits at positions >= nRight
// within a row's tail word must be zero.
func BitsetFromRows(nLeft, nRight int, rows []uint64) *BitsetBipartite {
	words := (nRight + 63) / 64
	if len(rows) != nLeft*words {
		panic(fmt.Sprintf("matching: adjacency has %d words, want %d×%d", len(rows), nLeft, words))
	}
	return &BitsetBipartite{nLeft: nLeft, nRight: nRight, words: words, adj: rows}
}

// SetEdge adds the edge (u, v); setting it twice is harmless.
func (b *BitsetBipartite) SetEdge(u, v int) {
	if u < 0 || u >= b.nLeft {
		panic(fmt.Sprintf("matching: left vertex %d out of range [0,%d)", u, b.nLeft))
	}
	if v < 0 || v >= b.nRight {
		panic(fmt.Sprintf("matching: right vertex %d out of range [0,%d)", v, b.nRight))
	}
	b.adj[u*b.words+v>>6] |= 1 << uint(v&63)
}

// HasEdge reports whether the edge (u, v) is present.
func (b *BitsetBipartite) HasEdge(u, v int) bool {
	return b.adj[u*b.words+v>>6]>>(uint(v)&63)&1 == 1
}

// NumLeft returns the number of left vertices.
func (b *BitsetBipartite) NumLeft() int { return b.nLeft }

// NumRight returns the number of right vertices.
func (b *BitsetBipartite) NumRight() int { return b.nRight }

func (b *BitsetBipartite) row(u int) []uint64 {
	return b.adj[u*b.words : (u+1)*b.words]
}

// MatchingStats reports the work one matching computation performed.
// Warm-started calls use it to verify the width-bounded augmentation
// claim: a matching seeded from a valid chain cover of c chains needs
// exactly c − w further augmentations to reach the optimum cover of
// w chains, independent of the O(√V) cold-start phase bound.
type MatchingStats struct {
	// SeedSize is the number of matched pairs adopted from the seed.
	SeedSize int
	// Phases counts BFS layerings run, including the final empty one
	// that certifies maximality (so a perfect seed still costs 1).
	// Every phase but that last augments at least once along shortest
	// augmenting paths, so Phases ≤ Augmentations + 1.
	Phases int
	// Augmentations counts augmenting paths applied on top of the
	// seed; always the final size minus SeedSize.
	Augmentations int
}

// MaxMatchingBitset is Hopcroft–Karp over the packed adjacency from an
// empty matching. The phase structure (and therefore the O(√V) phase
// bound) is identical to MaxMatching; see MaxMatchingBitsetWarm for
// how a phase runs on the packed rows.
func MaxMatchingBitset(b *BitsetBipartite) Matching {
	m, _ := MaxMatchingBitsetWarm(b, nil)
	return m
}

// MaxMatchingBitsetWarm is MaxMatchingBitset warm-started from a seed
// matching: seedL[u] is the right vertex initially matched to left
// vertex u, or -1. A nil seedL means a cold start. Every seeded pair
// must be an edge of b and no right vertex may be seeded twice (the
// function panics otherwise — seeds come from trusted chain covers,
// not user input). Hopcroft–Karp converges to a maximum matching from
// any valid initial matching; since each phase augments at least once,
// the whole run costs at most (max − |seed|) + 1 BFS phases.
//
// A phase is layered on the packed rows. The BFS from the free left
// vertices assigns every right vertex to the first layer that reaches
// it (one AND per word against an unvisited bitset) and keeps each
// layer's matched right vertices as a sparse list of non-zero words,
// next to one bitset of the free right vertices. The DFS from a
// layer-L left vertex scans only row ∧ free and row ∧ layer[L] — the
// right vertices whose mates sit on layer L+1 — and clears each right
// vertex as it enters it. A phase therefore enters every right vertex
// at most once, and a visit costs O(V/64) words however dense the row.
// Like the adjacency-list solver, the DFS takes a free right vertex
// wherever the layering meets one, so a phase may also augment along
// paths longer than the shortest; that keeps the phase count of the
// plain DFS (every phase but the last still augments at least once).
func MaxMatchingBitsetWarm(b *BitsetBipartite, seedL []int) (Matching, MatchingStats) {
	matchL := make([]int, b.nLeft)
	matchR := make([]int, b.nRight)
	for i := range matchL {
		matchL[i] = unmatched
	}
	for i := range matchR {
		matchR[i] = unmatched
	}
	var st MatchingStats
	if seedL != nil {
		if len(seedL) != b.nLeft {
			panic(fmt.Sprintf("matching: seed covers %d left vertices, want %d", len(seedL), b.nLeft))
		}
		for u, v := range seedL {
			if v == unmatched {
				continue
			}
			if v < 0 || v >= b.nRight {
				panic(fmt.Sprintf("matching: seed right vertex %d out of range [0,%d)", v, b.nRight))
			}
			if !b.HasEdge(u, v) {
				panic(fmt.Sprintf("matching: seed pair (%d,%d) is not an edge", u, v))
			}
			if matchR[v] != unmatched {
				panic(fmt.Sprintf("matching: seed matches right vertex %d twice", v))
			}
			matchL[u] = v
			matchR[v] = u
			st.SeedSize++
		}
	}

	l := layering{
		unvis: make([]uint64, b.words),
		found: make([]uint64, b.words),
		free:  make([]uint64, b.words),
	}
	size := st.SeedSize
	for {
		st.Phases++
		if !l.bfs(b, matchL, matchR) {
			break
		}
		for _, u := range l.queue[:l.nfree] {
			if l.dfs(b, matchL, matchR, u, 0) {
				size++
				st.Augmentations++
			}
		}
	}
	return Matching{MatchLeft: matchL, MatchRight: matchR, Size: size}, st
}

// layering is the per-phase state of the bitset Hopcroft–Karp. The
// left vertices sit in queue in BFS order, the free ones first. The
// matched right vertices of layer L — those first reached from left
// layer L — are the words idx[start[L]:start[L+1]], with their bits
// in the parallel bits slice. free holds the free right vertices not
// yet entered this phase. The buffers are reused across phases.
type layering struct {
	queue []int
	nfree int      // queue[:nfree] is left layer 0
	unvis []uint64 // right vertices no layer has reached yet
	found []uint64 // the layer being built, dense
	start []int
	idx   []int
	bits  []uint64
	free  []uint64
}

// bfs layers the graph from the free left vertices and reports whether
// some augmenting path exists.
func (l *layering) bfs(b *BitsetBipartite, matchL, matchR []int) bool {
	l.queue = l.queue[:0]
	for u, v := range matchL {
		if v == unmatched {
			l.queue = append(l.queue, u)
		}
	}
	l.nfree = len(l.queue)
	clear(l.free)
	for v, x := range matchR {
		if x == unmatched {
			l.free[v>>6] |= 1 << uint(v&63)
		}
	}
	for w := range l.unvis {
		l.unvis[w] = ^uint64(0)
	}
	if tail := b.nRight & 63; tail != 0 {
		l.unvis[b.words-1] = 1<<uint(tail) - 1
	}
	l.start, l.idx, l.bits = append(l.start[:0], 0), l.idx[:0], l.bits[:0]
	reached := false // some free right vertex is reachable
	for head := 0; head < len(l.queue); {
		for end := len(l.queue); head < end; head++ {
			for w, bitsW := range b.row(l.queue[head]) {
				cand := bitsW & l.unvis[w]
				if cand == 0 {
					continue
				}
				l.unvis[w] &^= cand
				for ; cand != 0; cand &= cand - 1 {
					if x := matchR[w<<6+bits.TrailingZeros64(cand)]; x == unmatched {
						reached = true
					} else {
						l.found[w] |= cand & -cand
						l.queue = append(l.queue, x) // next left layer
					}
				}
			}
		}
		for w, fw := range l.found {
			if fw != 0 {
				l.idx = append(l.idx, w)
				l.bits = append(l.bits, fw)
				l.found[w] = 0
			}
		}
		l.start = append(l.start, len(l.idx))
	}
	return reached
}

// dfs looks for an augmenting path from u on left layer L and flips it
// if found.
func (l *layering) dfs(b *BitsetBipartite, matchL, matchR []int, u, L int) bool {
	row := b.row(u)
	for w, fw := range l.free {
		if cand := row[w] & fw; cand != 0 {
			bit := cand & -cand
			l.free[w] &^= bit
			v := w<<6 + bits.TrailingZeros64(bit)
			matchL[u] = v
			matchR[v] = u
			return true
		}
	}
	for e := l.start[L]; e < l.start[L+1]; e++ {
		w := l.idx[e]
		for cand := row[w] & l.bits[e]; cand != 0; cand &= cand - 1 {
			bit := cand & -cand
			l.bits[e] &^= bit // entered: never again this phase
			v := w<<6 + bits.TrailingZeros64(bit)
			if l.dfs(b, matchL, matchR, matchR[v], L+1) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
	}
	return false
}

// MinVertexCoverBitset is MinVertexCover over the packed adjacency:
// König alternating reachability from free left vertices, with the
// same visited-right bitset trick as the matching BFS.
func MinVertexCoverBitset(b *BitsetBipartite, m Matching) (coverLeft, coverRight []bool) {
	visitedL := make([]bool, b.nLeft)
	visitedR := make([]bool, b.nRight)
	unvis := make([]uint64, b.words)
	for w := range unvis {
		unvis[w] = ^uint64(0)
	}
	if tail := b.nRight & 63; tail != 0 && b.words > 0 {
		unvis[b.words-1] = 1<<uint(tail) - 1
	}
	var queue []int
	for u := 0; u < b.nLeft; u++ {
		if m.MatchLeft[u] == unmatched {
			visitedL[u] = true
			queue = append(queue, u)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		row := b.row(u)
		for w, bitsW := range row {
			cand := bitsW & unvis[w]
			if cand == 0 {
				continue
			}
			// Must leave the left side via an unmatched edge; the
			// matched partner stays reachable through other lefts.
			if mv := m.MatchLeft[u]; mv != unmatched && mv>>6 == w {
				cand &^= 1 << uint(mv&63)
			}
			unvis[w] &^= cand
			for cand != 0 {
				v := w<<6 + bits.TrailingZeros64(cand)
				cand &= cand - 1
				visitedR[v] = true
				x := m.MatchRight[v]
				if x != unmatched && !visitedL[x] {
					visitedL[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
	coverLeft = make([]bool, b.nLeft)
	coverRight = make([]bool, b.nRight)
	for u := 0; u < b.nLeft; u++ {
		coverLeft[u] = !visitedL[u]
	}
	for v := 0; v < b.nRight; v++ {
		coverRight[v] = visitedR[v]
	}
	return coverLeft, coverRight
}
