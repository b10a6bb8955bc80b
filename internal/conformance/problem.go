package conformance

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"monoclass/internal/audit"
	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// Problem-artifact conformance: a shared prepared Problem must be
// observationally identical to the legacy rebuild-from-points paths —
// same passive solution bits, same chain decomposition, same audit
// report — in all three matrix modes, and must survive a serialization
// round trip without changing any of it. The legacy computations are
// replicated inline (matrix build, decomposition, chain-routed solve)
// rather than called through the refactored packages, so this check
// pins the pre-refactor semantics even as the packages migrate onto
// the Problem API.

// legacyAuditReport recomputes audit.Report exactly the way the
// pre-Problem audit package did: fresh domgraph.Build, popcount
// violation count, dimension-dispatched decomposition, chain-routed
// passive solve.
func legacyAuditReport(ws geom.WeightedSet) (audit.Report, error) {
	r := audit.Report{
		N:         len(ws),
		Dim:       ws.Dim(),
		WeightMin: math.Inf(1),
		WeightMax: math.Inf(-1),
	}
	for _, wp := range ws {
		if wp.Label == geom.Positive {
			r.Positives++
		} else {
			r.Negatives++
		}
		r.WeightTotal += wp.Weight
		if wp.Weight < r.WeightMin {
			r.WeightMin = wp.Weight
		}
		if wp.Weight > r.WeightMax {
			r.WeightMax = wp.Weight
		}
	}
	type groupInfo struct{ pos, neg bool }
	groups := make(map[string]*groupInfo, len(ws))
	for _, wp := range ws {
		key := wp.P.String()
		g := groups[key]
		if g == nil {
			g = &groupInfo{}
			groups[key] = g
		}
		if wp.Label == geom.Positive {
			g.pos = true
		} else {
			g.neg = true
		}
	}
	for _, g := range groups {
		if g.pos && g.neg {
			r.DuplicateConflicts++
		}
	}
	pts := make([]geom.Point, len(ws))
	labels := make([]geom.Label, len(ws))
	for i, wp := range ws {
		pts[i] = wp.P
		labels[i] = wp.Label
	}
	m := domgraph.Build(pts)
	r.ViolationPairs = m.CountViolations(labels)
	var dec chains.Decomposition
	if ws.Dim() >= 3 {
		dec = chains.DecomposeMatrix(pts, m)
	} else {
		dec = chains.Decompose(pts)
	}
	r.Width = dec.Width
	r.ChainLenMin, r.ChainLenMax = len(ws), 0
	for _, c := range dec.Chains {
		if len(c) < r.ChainLenMin {
			r.ChainLenMin = len(c)
		}
		if len(c) > r.ChainLenMax {
			r.ChainLenMax = len(c)
		}
	}
	sol, err := passive.Solve(ws, passive.Options{Chains: dec.Chains})
	if err != nil {
		return audit.Report{}, err
	}
	r.KStar = sol.WErr
	r.KStarFraction = sol.WErr / r.WeightTotal
	r.Contending = sol.Stats.Contending
	return r, nil
}

func sameSolutions(tag string, got, want passive.Solution) error {
	if got.WErr != want.WErr {
		return fmt.Errorf("%s: WErr %v, legacy %v", tag, got.WErr, want.WErr)
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		return fmt.Errorf("%s: assignment diverges from legacy", tag)
	}
	if !reflect.DeepEqual(got.Classifier.Anchors(), want.Classifier.Anchors()) {
		return fmt.Errorf("%s: anchors diverge from legacy", tag)
	}
	if got.Stats != want.Stats {
		return fmt.Errorf("%s: stats %+v, legacy %+v", tag, got.Stats, want.Stats)
	}
	return nil
}

// CheckProblemPrepared is the problem-prepared-vs-legacy differential.
func CheckProblemPrepared(in Instance) error {
	ws := in.WeightedSet()
	if len(ws) == 0 {
		if _, err := problem.Prepare(ws, problem.Options{}); err == nil {
			return fmt.Errorf("Prepare accepted an empty set")
		}
		return nil
	}
	if hasNaNPoints(in.Pts()) {
		// The legacy kernel builder and the scalar view fallback may
		// legitimately disagree on NaN inputs; the view property tests
		// own that territory. ±Inf is totally ordered and runs.
		return nil
	}

	legacySol, err := passive.Solve(ws, passive.Options{})
	if err != nil {
		return fmt.Errorf("legacy solve: %w", err)
	}
	legacyDec := chains.Decompose(in.Pts())
	legacyRep, err := legacyAuditReport(ws)
	if err != nil {
		return fmt.Errorf("legacy audit: %w", err)
	}

	for _, mode := range []problem.MatrixMode{problem.ModeDense, problem.ModeBlocked, problem.ModeImplicit} {
		p, err := problem.Prepare(ws, problem.Options{Mode: mode})
		if err != nil {
			return fmt.Errorf("%v: Prepare: %w", mode, err)
		}
		sol, err := p.Solve()
		if err != nil {
			return fmt.Errorf("%v: Solve: %w", mode, err)
		}
		if err := sameSolutions(mode.String(), sol, legacySol); err != nil {
			return err
		}
		again, err := p.Solve()
		if err != nil {
			return fmt.Errorf("%v: re-solve: %w", mode, err)
		}
		if err := sameSolutions(mode.String()+" re-solve", again, sol); err != nil {
			return err
		}
		if got := p.Decomposition(); !reflect.DeepEqual(got, legacyDec) {
			return fmt.Errorf("%v: decomposition diverges from chains.Decompose", mode)
		}
		rep, err := audit.AuditProblem(p)
		if err != nil {
			return fmt.Errorf("%v: audit: %w", mode, err)
		}
		if rep != legacyRep {
			return fmt.Errorf("%v: audit report %+v, legacy %+v", mode, rep, legacyRep)
		}

		var buf bytes.Buffer
		if err := problem.Write(&buf, p); err != nil {
			return fmt.Errorf("%v: serialize: %w", mode, err)
		}
		q, err := problem.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("%v: deserialize: %w", mode, err)
		}
		rsol, err := q.Solve()
		if err != nil {
			return fmt.Errorf("%v: reread solve: %w", mode, err)
		}
		if err := sameSolutions(mode.String()+" round trip", rsol, legacySol); err != nil {
			return err
		}
		if q.Violations() != p.Violations() {
			return fmt.Errorf("%v: round trip changed violations %d -> %d", mode, p.Violations(), q.Violations())
		}
	}
	return nil
}
