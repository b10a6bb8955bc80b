package problem_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"monoclass/internal/audit"
	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// TestLazyDecompositionConcurrentFirstUse: a dense Problem (Prepare or
// Adopt) decomposes on first use. Racing first Decomposition, Width,
// Write, AuditProblem and Solve calls must all see one decomposition —
// the one chains.DecomposeMatrix derives from the matrix — and Stats
// must report PathDeferred before and the computed path after, with
// the prepare stages unchanged. make ci-smoke runs it under -race.
func TestLazyDecompositionConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ws := lazyViewSet(rng, 300, 3)
	pts := make([]geom.Point, len(ws))
	for i := range ws {
		pts[i] = ws[i].P
	}
	m := domgraph.Build(pts)
	want := chains.DecomposeMatrix(pts, m)
	legacy, err := passive.Solve(ws, passive.Options{})
	if err != nil {
		t.Fatal(err)
	}

	routes := []struct {
		name string
		path string
		make func() (*problem.Problem, error)
	}{
		{"prepare", problem.PathExactDense, func() (*problem.Problem, error) {
			return problem.Prepare(ws, problem.Options{Mode: problem.ModeDense})
		}},
		{"adopt", problem.PathAdopted, func() (*problem.Problem, error) { return problem.Adopt(ws, m) }},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			p, err := rt.make()
			if err != nil {
				t.Fatal(err)
			}
			before := p.Stats()
			if before.DecomposePath != problem.PathDeferred || before.Width != 0 || before.DecomposeNS != 0 {
				t.Fatalf("stats before first use %+v", before)
			}

			const rounds = 2
			var (
				wg     sync.WaitGroup
				decs   [rounds]chains.Decomposition
				widths [rounds]int
				files  [rounds][]byte
				reps   [rounds]audit.Report
				sols   [rounds]passive.Solution
				errs   = make(chan error, 4*rounds)
			)
			for r := 0; r < rounds; r++ {
				wg.Add(6)
				go func() { defer wg.Done(); decs[r] = p.Decomposition() }()
				go func() { defer wg.Done(); widths[r] = p.Width() }()
				go func() { defer wg.Done(); _ = p.Stats() }()
				go func() {
					defer wg.Done()
					var buf bytes.Buffer
					if err := problem.Write(&buf, p); err != nil {
						errs <- err
					}
					files[r] = buf.Bytes()
				}()
				go func() {
					defer wg.Done()
					rep, err := audit.AuditProblem(p)
					if err != nil {
						errs <- err
					}
					reps[r] = rep
				}()
				go func() {
					defer wg.Done()
					sol, err := p.Solve()
					if err != nil {
						errs <- err
					}
					sols[r] = sol
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				if !reflect.DeepEqual(decs[r], want) || widths[r] != want.Width {
					t.Fatalf("round %d: decomposition (width %d / %d) differs from DecomposeMatrix (width %d)",
						r, decs[r].Width, widths[r], want.Width)
				}
				if !bytes.Equal(files[r], files[0]) || reps[r] != reps[0] {
					t.Fatalf("round %d: Write or audit output differs", r)
				}
				if sols[r].WErr != legacy.WErr || !slices.Equal(sols[r].Assignment, legacy.Assignment) {
					t.Fatalf("round %d: solve WErr %v, legacy %v", r, sols[r].WErr, legacy.WErr)
				}
			}
			if reps[0].Width != want.Width {
				t.Fatalf("audit width %d, want %d", reps[0].Width, want.Width)
			}

			after := p.Stats()
			if after.DecomposePath != rt.path || after.Width != want.Width || !after.ExactWidth || after.DecomposeNS <= 0 {
				t.Fatalf("stats after first use %+v", after)
			}
			if after.TotalNS != before.TotalNS || after.NetworkNS != before.NetworkNS || after.MatrixNS != before.MatrixNS {
				t.Fatalf("first use changed prepare stages: %+v -> %+v", before, after)
			}
			if p.Stats() != after {
				t.Fatalf("a second read changed Stats: %+v -> %+v", after, p.Stats())
			}
		})
	}
}

// TestNetworkPerRoute: with non-integer weights, Prepare in dense,
// blocked and implicit mode, Adopt, and a Write→Read of each must give
// the edge count, WErr bits and Assignment of passive.Solve(ws,
// passive.Options{}): at d ≥ 3 each holds the matrix (dense, adopted,
// or transient for the exact decomposition) and builds the cover
// network from it, and at d ≤ 2 each networks along the O(n log n)
// decomposition. Past the exact-decomposition limit or the footprint
// guard a blocked or implicit Problem at d ≥ 3 networks along its
// greedy cover instead: it must match passive.Solve over those chains
// bit for bit, and the cover-network optimum up to rounding.
func TestNetworkPerRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(150)
		d := 1 + rng.Intn(4)
		ws := lazyViewSet(rng, n, d)
		for i := range ws {
			ws[i].Weight = 0.1 + rng.Float64()*3.7
		}
		pts := make([]geom.Point, n)
		for i := range ws {
			pts[i] = ws[i].P
		}
		legacy, err := passive.Solve(ws, passive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		routes := []struct {
			name     string
			fallback bool // the greedy fallback, whose network follows its chains
			make     func() (*problem.Problem, error)
		}{
			{"dense", false, func() (*problem.Problem, error) {
				return problem.Prepare(ws, problem.Options{Mode: problem.ModeDense})
			}},
			{"adopt", false, func() (*problem.Problem, error) { return problem.Adopt(ws, domgraph.Build(pts)) }},
			{"blocked", false, func() (*problem.Problem, error) {
				return problem.Prepare(ws, problem.Options{Mode: problem.ModeBlocked})
			}},
			{"implicit", false, func() (*problem.Problem, error) {
				return problem.Prepare(ws, problem.Options{Mode: problem.ModeImplicit})
			}},
			{"greedy", d >= 3, func() (*problem.Problem, error) {
				return problem.Prepare(ws, problem.Options{Mode: problem.ModeBlocked, ExactDecomposeLimit: 1})
			}},
			{"small-guard", d >= 3, func() (*problem.Problem, error) {
				return problem.Prepare(ws, problem.Options{Mode: problem.ModeImplicit, MaxDenseBytes: 64})
			}},
		}
		for _, rt := range routes {
			p, err := rt.make()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, rt.name, err)
			}
			var buf bytes.Buffer
			if err := problem.Write(&buf, p); err != nil {
				t.Fatal(err)
			}
			q, err := problem.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want := legacy
			if rt.fallback {
				if want, err = passive.Solve(ws, passive.Options{Chains: p.Decomposition().Chains}); err != nil {
					t.Fatal(err)
				}
			}
			for tag, pr := range map[string]*problem.Problem{rt.name: p, rt.name + " write-read": q} {
				sol, err := pr.Solve()
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, tag, err)
				}
				if sol.WErr != want.WErr || !slices.Equal(sol.Assignment, want.Assignment) || sol.Stats != want.Stats {
					t.Fatalf("trial %d (n=%d d=%d) %s: WErr %v stats %+v, reference WErr %v stats %+v",
						trial, n, d, tag, sol.WErr, sol.Stats, want.WErr, want.Stats)
				}
				if math.Abs(sol.WErr-legacy.WErr) > 1e-9*(1+legacy.WErr) || sol.Stats.Contending != legacy.Stats.Contending {
					t.Fatalf("trial %d (n=%d d=%d) %s: WErr %v contending %d, passive.Solve %v %d",
						trial, n, d, tag, sol.WErr, sol.Stats.Contending, legacy.WErr, legacy.Stats.Contending)
				}
			}
		}
	}
}

// TestNonDensePrepareSkipsCoverNetwork: a blocked or implicit Problem
// builds the cover network only on the transient matrix the footprint
// guard admits for its exact decomposition. With the guard too small
// for that matrix its network is the chain-transition one over the
// greedy decomposition, with no m×m closure — on an instance where the
// two edge counts differ.
func TestNonDensePrepareSkipsCoverNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ws := lazyViewSet(rng, 400, 3)
	coverNet, err := passive.BuildNetwork(ws, passive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []problem.MatrixMode{problem.ModeBlocked, problem.ModeImplicit} {
		for _, tc := range []struct {
			guard int64
			path  string
		}{{0, problem.PathExactTransient}, {1024, problem.PathGreedyFallback}} {
			p, err := problem.Prepare(ws, problem.Options{Mode: mode, MaxDenseBytes: tc.guard})
			if err != nil {
				t.Fatal(err)
			}
			if p.Stats().DecomposePath != tc.path {
				t.Fatalf("%v guard %d: path %s, want %s", mode, tc.guard, p.Stats().DecomposePath, tc.path)
			}
			chainNet, err := passive.BuildNetwork(ws, passive.Options{Chains: p.Decomposition().Chains})
			if err != nil {
				t.Fatal(err)
			}
			want := chainNet.NumEdges()
			if tc.path == problem.PathExactTransient {
				want = coverNet.NumEdges()
			}
			if p.NumEdges() != want {
				t.Fatalf("%v guard %d: %d edges, want %d (cover %d, chain transition %d)",
					mode, tc.guard, p.NumEdges(), want, coverNet.NumEdges(), chainNet.NumEdges())
			}
			if chainNet.NumEdges() == coverNet.NumEdges() {
				t.Fatalf("%v guard %d: chain-transition and cover networks both have %d edges; pick an instance that tells them apart",
					mode, tc.guard, coverNet.NumEdges())
			}
		}
	}
}
