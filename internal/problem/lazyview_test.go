package problem_test

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"monoclass/internal/audit"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

func lazyViewSet(rng *rand.Rand, n, d int) geom.WeightedSet {
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(7))
		}
		ws[i] = geom.WeightedPoint{P: p, Label: geom.Label(rng.Intn(2)), Weight: 0.5 + rng.Float64()}
	}
	return ws
}

// sameBitsAsNaive holds every closure and DAG bit of v, read both
// pointwise and row-wise, to domgraph.BuildNaive over pts.
func sameBitsAsNaive(t *testing.T, tag string, v domgraph.View, pts []geom.Point) {
	t.Helper()
	want := domgraph.BuildNaive(pts)
	if v.N() != want.N() || v.Words() != want.Words() {
		t.Fatalf("%s: view shape %d/%d, naive %d/%d", tag, v.N(), v.Words(), want.N(), want.Words())
	}
	row := make([]uint64, v.Words())
	for i := 0; i < v.N(); i++ {
		v.ReadDomRow(row, i)
		for w, bits := range want.DomRow(i) {
			if row[w] != bits {
				t.Fatalf("%s: closure row %d word %d = %x, naive %x", tag, i, w, row[w], bits)
			}
		}
		v.ReadDAGRow(row, i)
		for w, bits := range want.DAGRow(i) {
			if row[w] != bits {
				t.Fatalf("%s: DAG row %d word %d = %x, naive %x", tag, i, w, row[w], bits)
			}
		}
		for j := 0; j < v.N(); j++ {
			if v.Dominates(i, j) != want.Dominates(i, j) || v.Edge(i, j) != want.Edge(i, j) {
				t.Fatalf("%s: pair (%d,%d) disagrees with naive", tag, i, j)
			}
		}
	}
}

// TestLazyViewConcurrentFirstUse: a blocked or implicit Problem builds
// its view on the first View call. Racing first calls — View directly
// and through Violations — must all see one view whose bits equal
// BuildNaive, and a Prepare that never read the view must report
// MatrixNS == 0. Audit reports, violation counts and Write→Read round
// trips must match the dense Problem over the same points wherever the
// decomposition path is the same.
func TestLazyViewConcurrentFirstUse(t *testing.T) {
	cases := []struct {
		name      string
		d         int
		opts      problem.Options
		path      string
		viewBuilt bool // Prepare itself reads the view
	}{
		{"implicit-2d", 2, problem.Options{Mode: problem.ModeImplicit}, problem.PathFast2D, false},
		{"blocked-2d", 2, problem.Options{Mode: problem.ModeBlocked}, problem.PathFast2D, false},
		{"auto-implicit-1d", 1, problem.Options{DenseLimit: 8}, problem.PathFast2D, false},
		{"blocked-greedy", 3, problem.Options{Mode: problem.ModeBlocked, ExactDecomposeLimit: 10}, problem.PathGreedyFallback, false},
		{"implicit-greedy", 4, problem.Options{Mode: problem.ModeImplicit, ExactDecomposeLimit: 10}, problem.PathGreedyFallback, false},
		{"blocked-transient", 3, problem.Options{Mode: problem.ModeBlocked, Blocked: domgraph.BlockedConfig{TileRows: 64}}, problem.PathExactTransient, true},
	}
	rng := rand.New(rand.NewSource(61))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := lazyViewSet(rng, 150, tc.d)
			p, err := problem.Prepare(ws, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if st.DecomposePath != tc.path || p.Matrix() != nil {
				t.Fatalf("stats %+v, matrix retained %v", st, p.Matrix() != nil)
			}
			if got := st.MatrixNS != 0; got != tc.viewBuilt {
				t.Fatalf("MatrixNS = %d, want a view build recorded: %v", st.MatrixNS, tc.viewBuilt)
			}

			const readers = 8
			views := make([]domgraph.View, readers)
			viol := make([]int, readers)
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if r%2 == 0 {
						viol[r] = p.Violations()
					}
					views[r] = p.View()
				}(r)
			}
			wg.Wait()
			for r := 1; r < readers; r++ {
				if views[r] != views[0] {
					t.Fatalf("reader %d got a different view", r)
				}
			}
			if p.Stats() != st {
				t.Fatalf("building the view changed Stats: %+v -> %+v", st, p.Stats())
			}
			sameBitsAsNaive(t, tc.name, views[0], p.Points())

			dense, err := problem.Prepare(ws, problem.Options{Mode: problem.ModeDense})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < readers; r += 2 {
				if viol[r] != dense.Violations() {
					t.Fatalf("reader %d: Violations %d, dense %d", r, viol[r], dense.Violations())
				}
			}
			rep, err := audit.AuditProblem(p)
			if err != nil {
				t.Fatal(err)
			}
			denseRep, err := audit.AuditProblem(dense)
			if err != nil {
				t.Fatal(err)
			}
			if tc.path == problem.PathGreedyFallback {
				// A greedy cover may be wider, and its network sums the
				// optimum in another order; the width-free figures must
				// still agree.
				if rep.ViolationPairs != denseRep.ViolationPairs || math.Abs(rep.KStar-denseRep.KStar) > 1e-9 {
					t.Fatalf("audit %+v, dense %+v", rep, denseRep)
				}
			} else if rep != denseRep {
				t.Fatalf("audit %+v, dense %+v", rep, denseRep)
			}

			var buf bytes.Buffer
			if err := problem.Write(&buf, p); err != nil {
				t.Fatal(err)
			}
			q, err := problem.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if q.Stats().MatrixNS != 0 {
				t.Fatalf("loaded problem built a view: %+v", q.Stats())
			}
			if q.Violations() != p.Violations() {
				t.Fatalf("round trip: Violations %d, source %d", q.Violations(), p.Violations())
			}
			qrep, err := audit.AuditProblem(q)
			if err != nil {
				t.Fatal(err)
			}
			if qrep != rep {
				t.Fatalf("round trip: audit %+v, source %+v", qrep, rep)
			}
			sameBitsAsNaive(t, tc.name+" round trip", q.View(), q.Points())
		})
	}
}

// TestDenseViewIsMatrix: in dense mode Prepare builds the matrix and
// times it, and View returns that matrix itself.
func TestDenseViewIsMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	p, err := problem.Prepare(lazyViewSet(rng, 80, 3), problem.Options{Mode: problem.ModeDense})
	if err != nil {
		t.Fatal(err)
	}
	if p.Matrix() == nil || p.View() != domgraph.View(p.Matrix()) {
		t.Fatal("dense view is not the retained matrix")
	}
	if p.Stats().MatrixNS <= 0 {
		t.Fatalf("dense build untimed: %+v", p.Stats())
	}
}
