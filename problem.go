package monoclass

import (
	"io"

	"monoclass/internal/audit"
	"monoclass/internal/online"
	"monoclass/internal/problem"
)

// Prepared problems: one dominance representation — matrix (dense,
// blocked, or implicit), chain decomposition, and flow network — built
// once by PrepareProblem and shared by training (TrainPrepared),
// auditing (AuditPrepared), online learning
// (NewOnlineUpdaterFromProblem), and serving gates. Callers that train
// and audit the same point set through a shared Problem pay for the
// O(dn²) structure exactly once instead of once per entry point.
type (
	// Problem is an immutable prepared instance; see PrepareProblem.
	Problem = problem.Problem
	// ProblemOptions configures PrepareProblem (matrix mode, memory
	// guard, decomposition limits).
	ProblemOptions = problem.Options
	// MatrixMode selects the dominance representation: ModeAuto,
	// ModeDense, ModeBlocked, or ModeImplicit.
	MatrixMode = problem.MatrixMode
	// PrepareStats reports how PrepareProblem built an instance:
	// per-stage wall times, the decomposition path taken (exact
	// warm-started matching vs the greedy fallback), and the
	// warm-start work counters. Read it with (*Problem).Stats.
	PrepareStats = problem.PrepareStats
)

// Matrix modes.
const (
	// ModeAuto picks dense while the matrix fits, then blocked (d ≥ 3)
	// or implicit (d ≤ 2).
	ModeAuto = problem.ModeAuto
	// ModeDense materializes the full bit-packed dominance matrix.
	ModeDense = problem.ModeDense
	// ModeBlocked materializes cache-sized row tiles on demand.
	ModeBlocked = problem.ModeBlocked
	// ModeImplicit answers dominance from per-dimension rank arrays.
	ModeImplicit = problem.ModeImplicit
)

// ParseMatrixMode parses a mode's flag spelling ("auto", "dense",
// "blocked", "implicit").
func ParseMatrixMode(s string) (MatrixMode, error) { return problem.ParseMode(s) }

// PrepareProblem builds the prepared form of ws once: dominance
// representation, chain decomposition (in dense mode on first use),
// and the Theorem 4 flow network. Every consumer below accepts the
// result, so nothing is re-derived.
func PrepareProblem(ws WeightedSet, opts ProblemOptions) (*Problem, error) {
	return problem.Prepare(ws, opts)
}

// TrainPrepared solves the prepared instance — the same solution
// OptimalPassive returns for the underlying set, minus the rebuild:
// repeated calls pay only a max-flow re-solve on the cached network.
func TrainPrepared(p *Problem) (PassiveSolution, error) { return p.Solve() }

// AuditPrepared computes the dataset report from the prepared
// instance; combined with TrainPrepared it replaces the
// OptimalPassive+AuditDataset pairing that built the dominance matrix
// twice.
func AuditPrepared(p *Problem) (AuditReport, error) { return audit.AuditProblem(p) }

// NewOnlineUpdaterFromProblem seeds an incremental learner from a
// prepared Problem, adopting its dense matrix (when the mode holds
// one) instead of rebuilding the relation.
func NewOnlineUpdaterFromProblem(p *Problem, cfg OnlineConfig) (*OnlineUpdater, error) {
	return online.NewUpdaterFromProblem(p, cfg)
}

// SaveProblem serializes a prepared problem as versioned JSON
// (alongside the SaveModel format); LoadProblem restores it, letting a
// warm process skip PrepareProblem entirely.
func SaveProblem(w io.Writer, p *Problem) error { return problem.Write(w, p) }

// LoadProblem deserializes a problem written by SaveProblem,
// validating the stored structure before trusting it.
func LoadProblem(r io.Reader) (*Problem, error) { return problem.Read(r) }
