package domgraph

import (
	"math/bits"
	"runtime"
	"slices"

	"monoclass/internal/geom"
)

// Edge is one directed edge between point indices.
type Edge struct{ From, To int32 }

// coverBlockRows is the unit of parallel work of the cover builder: a
// fixed number of sorted rows per block, so the block boundaries, and
// with them the edge sequence, do not depend on the core count.
const coverBlockRows = 256

// CoverEdges returns the cover relation (Hasse diagram) of pts as
// edges between indices of pts: i → j for every pair with pts[i] ⪰
// pts[j] and no third point strictly between them. Coordinate-equal
// points form one element of the order: the first of them in the sort
// below carries the element's covers, each cover edge points at the
// first of the covered element's points, and consecutive equal points
// are linked in both directions. The reachability of the edges is
// therefore exactly ⪰ (reflexive, both ways for duplicates), and no
// edge is implied by a path through other edges.
//
// The points are sorted lexicographically descending, ties by index,
// which is a linear extension of ⪰: everything a point strictly
// dominates comes after it. Their closure is built with Build's sweep
// (dom rows only, m²/8 bytes for m points). Row k then walks its
// dominated candidates past its own run of equal points in sorted
// order, keeping a covered bitset: a candidate j that is not covered
// yet has nothing between it and k — anything between would come
// earlier in the walk and would have covered j — so it becomes a
// cover, and its own closure row is ORed into covered, over row j's
// non-zero span only (one word for a point that dominates nothing
// else). The rows are built in fixed blocks on GOMAXPROCS workers and
// returned as blocks in sorted order; their concatenation is the edge
// sequence, the same at every core count.
func CoverEdges(pts []geom.Point) [][]Edge {
	return coverEdges(pts, runtime.GOMAXPROCS(0))
}

func coverEdges(pts []geom.Point, workers int) [][]Edge {
	m := len(pts)
	if m == 0 {
		return nil
	}
	order := make([]int32, m) // sorted position -> index into pts
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		pa, pb := pts[a], pts[b]
		for k := range pa {
			if pa[k] != pb[k] {
				if pa[k] > pb[k] {
					return -1
				}
				return 1
			}
		}
		return int(a - b)
	})
	sorted := make([]geom.Point, m)
	for s, i := range order {
		sorted[s] = pts[i]
	}
	mat := buildClosure(sorted, workers)
	words := mat.words

	// runEnd[s] is the first sorted position past s's run of equal
	// points; spanHi[s] the last non-zero word of row s.
	runEnd := make([]int32, m)
	for s := m - 1; s >= 0; s-- {
		if s+1 < m && sorted[s].Equal(sorted[s+1]) {
			runEnd[s] = runEnd[s+1]
		} else {
			runEnd[s] = int32(s + 1)
		}
	}
	spanHi := make([]int32, m)
	numBlocks := (m + coverBlockRows - 1) / coverBlockRows
	parallelBlocks(numBlocks, workers, func(blk int) {
		for s := blk * coverBlockRows; s < min((blk+1)*coverBlockRows, m); s++ {
			row := mat.DomRow(s)
			w := words - 1
			for w > s>>6 && row[w] == 0 {
				w--
			}
			spanHi[s] = int32(w)
		}
	})

	blocks := make([][]Edge, numBlocks)
	parallelBlocks(numBlocks, workers, func(blk int) {
		covered := make([]uint64, words)
		var out []Edge
		for s := blk * coverBlockRows; s < min((blk+1)*coverBlockRows, m); s++ {
			if s+1 < int(runEnd[s]) {
				out = append(out, Edge{order[s], order[s+1]}, Edge{order[s+1], order[s]})
			}
			if s > 0 && runEnd[s-1] == runEnd[s] {
				continue // not the first of its run
			}
			e := int(runEnd[s])
			if e == m {
				continue
			}
			row := mat.DomRow(s)
			lo, hi := e>>6, int(spanHi[s])
			dirty := lo - 1 // highest covered word written
			for w := lo; w <= hi; w++ {
				cand := row[w] &^ covered[w]
				if w == lo {
					cand &= ^uint64(0) << (uint(e) & 63)
				}
				for cand != 0 {
					bit := cand & -cand
					j := w<<6 + bits.TrailingZeros64(cand)
					out = append(out, Edge{order[s], order[j]})
					jhi := int(spanHi[j])
					src := mat.DomRow(j)[w : jhi+1]
					dst := covered[w : w+len(src)]
					for x, v := range src {
						dst[x] |= v
					}
					dirty = max(dirty, jhi)
					cand = (cand &^ bit) &^ covered[w]
				}
			}
			clear(covered[lo : dirty+1])
		}
		blocks[blk] = out
	})
	return blocks
}
