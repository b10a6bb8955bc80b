// Command monoclass trains and evaluates monotone classifiers on CSV
// datasets (columns: x1..xd,label,weight).
//
// Subcommands:
//
//	monoclass passive -in data.csv
//	    Solve Problem 2 exactly (Theorem 4): print the optimal
//	    weighted error and the anchor points of an optimal classifier.
//
//	monoclass active -in data.csv -eps 0.5 [-delta 0.05] [-seed 1] [-theory]
//	    Hide the labels behind a probing oracle and run the active
//	    algorithm (Theorems 2+3): print probing cost, the learned
//	    classifier, and its true error against the file's labels.
//
//	monoclass eval -in data.csv -model model.json
//	    Evaluate a stored anchor classifier against a labeled CSV.
//
//	monoclass width -in data.csv
//	    Print the dominance width and a minimum chain decomposition
//	    summary (Lemma 6).
//
//	monoclass audit -in data.csv
//	    Report dataset health: label balance, monotone violations,
//	    contending points, k*, width, and chain profile.
//
//	monoclass prepare -in data.csv -out problem.json [-mode auto|dense|blocked|implicit]
//	                  [-exact-decompose-limit N]
//	    Build the prepared problem artifact (dominance structure,
//	    chain decomposition, flow network) once and save it; passive
//	    and audit accept it via -problem, skipping the rebuild. The
//	    output reports the decomposition path taken (warm-started
//	    exact vs greedy fallback) with per-stage timings, and warns
//	    when the width is only an upper bound.
//
//	monoclass hasse -in data.csv > out.dot
//	    Render the dominance Hasse diagram as Graphviz DOT (small
//	    datasets only).
//
//	monoclass tradeoff -in data.csv -levels 20,10,5,3
//	    Sweep score-quantization levels, reporting the dominance
//	    width (labeling-cost driver) against the optimal error k*.
//
//	monoclass serve -model model.json [-addr :8080]
//	monoclass serve -in data.csv [-addr :8080]
//	    Serve the model over HTTP (micro-batched /classify with hot
//	    swaps via POST /model); with -in, train it first with the
//	    passive solver. Thin front-end to cmd/monoserve's engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"monoclass"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "passive":
		err = runPassive(os.Args[2:])
	case "active":
		err = runActive(os.Args[2:])
	case "eval":
		err = runEval(os.Args[2:])
	case "width":
		err = runWidth(os.Args[2:])
	case "audit":
		err = runAudit(os.Args[2:])
	case "prepare":
		err = runPrepare(os.Args[2:])
	case "hasse":
		err = runHasse(os.Args[2:])
	case "tradeoff":
		err = runTradeoff(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "monoclass: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: monoclass <passive|active|eval|width|audit|prepare|hasse|tradeoff|serve> [flags]")
	fmt.Fprintln(os.Stderr, "run 'monoclass <subcommand> -h' for flags")
}

func loadCSV(path string) (monoclass.WeightedSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return monoclass.ReadCSV(f)
}

// prepareArg resolves the -in/-problem/-mode flag trio every
// structure-consuming subcommand shares: load a serialized prepared
// problem when -problem is given, otherwise prepare the CSV once. The
// single Problem then feeds training and auditing without a second
// dominance build.
func prepareArg(in, problemPath, mode string, exactLimit int) (*monoclass.Problem, error) {
	if problemPath != "" {
		if in != "" {
			return nil, fmt.Errorf("-in and -problem are mutually exclusive")
		}
		f, err := os.Open(problemPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return monoclass.LoadProblem(f)
	}
	if in == "" {
		return nil, fmt.Errorf("-in or -problem is required")
	}
	m, err := monoclass.ParseMatrixMode(mode)
	if err != nil {
		return nil, err
	}
	ws, err := loadCSV(in)
	if err != nil {
		return nil, err
	}
	return monoclass.PrepareProblem(ws, monoclass.ProblemOptions{Mode: m, ExactDecomposeLimit: exactLimit})
}

func runPassive(args []string) error {
	fs := flag.NewFlagSet("passive", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (x1..xd,label,weight)")
	problemPath := fs.String("problem", "", "prepared problem JSON written by 'prepare' (alternative to -in)")
	mode := fs.String("mode", "auto", "matrix mode: auto, dense, blocked, implicit")
	doAudit := fs.Bool("audit", false, "also print the dataset audit, from the same prepared structure")
	save := fs.String("save", "", "write the trained model as JSON to this path")
	fs.Parse(args)
	p, err := prepareArg(*in, *problemPath, *mode, 0)
	if err != nil {
		return err
	}
	sol, err := monoclass.TrainPrepared(p)
	if err != nil {
		return err
	}
	fmt.Printf("points:                %d\n", p.N())
	fmt.Printf("contending points:     %d\n", sol.Stats.Contending)
	fmt.Printf("optimal weighted error: %g\n", sol.WErr)
	printAnchors(sol.Classifier)
	if *doAudit {
		report, err := monoclass.AuditPrepared(p)
		if err != nil {
			return err
		}
		fmt.Print(report)
	}
	return saveModel(*save, sol.Classifier)
}

func runPrepare(args []string) error {
	fs := flag.NewFlagSet("prepare", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (x1..xd,label,weight)")
	out := fs.String("out", "", "write the prepared problem JSON to this path")
	mode := fs.String("mode", "auto", "matrix mode: auto, dense, blocked, implicit")
	exactLimit := fs.Int("exact-decompose-limit", 0,
		"largest n decomposed exactly before falling back to greedy (0: library default)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	start := time.Now()
	p, err := prepareArg(*in, "", *mode, *exactLimit)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := monoclass.SaveProblem(f, p); err != nil {
		return err
	}
	// Width computes a dense problem's deferred decomposition (SaveProblem
	// already has), so Stats below reports the path and its timing.
	width, exact := p.Width(), p.ExactWidth()
	st := p.Stats()
	fmt.Printf("points:      %d (dim %d)\n", p.N(), p.Dim())
	fmt.Printf("matrix mode: %s\n", p.Mode())
	fmt.Printf("width:       %d (exact: %v)\n", width, exact)
	fmt.Printf("decompose:   %s (seed %d chains, %d augmentations, %d phases)\n",
		st.DecomposePath, st.SeedChains, st.Augmentations, st.Phases)
	fmt.Printf("stages:      matrix %s, decompose %s, network %s\n",
		time.Duration(st.MatrixNS).Round(time.Millisecond),
		time.Duration(st.DecomposeNS).Round(time.Millisecond),
		time.Duration(st.NetworkNS).Round(time.Millisecond))
	if !exact {
		fmt.Printf("warning:     exact decomposition skipped; width %d is an upper bound "+
			"(raise -exact-decompose-limit or memory guard to force exact)\n", width)
	}
	fmt.Printf("prepare:     %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("problem saved to %s\n", *out)
	return nil
}

// saveModel writes the model to path, or does nothing for "".
func saveModel(path string, h *monoclass.AnchorSet) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := monoclass.SaveModel(f, h); err != nil {
		return err
	}
	fmt.Printf("model saved to %s\n", path)
	return nil
}

func runActive(args []string) error {
	fs := flag.NewFlagSet("active", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (labels are hidden behind the oracle)")
	eps := fs.Float64("eps", 0.5, "approximation slack ε in (0,1]")
	delta := fs.Float64("delta", 0.05, "failure probability δ")
	seed := fs.Int64("seed", 1, "random seed")
	theory := fs.Bool("theory", false, "use the paper's exact constants (conservative)")
	save := fs.String("save", "", "write the trained model as JSON to this path")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ws, err := loadCSV(*in)
	if err != nil {
		return err
	}
	lab := make([]monoclass.LabeledPoint, len(ws))
	pts := make([]monoclass.Point, len(ws))
	for i, wp := range ws {
		lab[i] = monoclass.LabeledPoint{P: wp.P, Label: wp.Label}
		pts[i] = wp.P
	}
	par := monoclass.PracticalParams(*eps, *delta)
	if *theory {
		par = monoclass.TheoryParams(*eps, *delta)
	}
	o := monoclass.InstrumentLabeled(lab)
	rng := rand.New(rand.NewSource(*seed))
	res, err := monoclass.ActiveLearn(pts, o, par, rng)
	if err != nil {
		return err
	}
	kstar, err := monoclass.OptimalError(ws)
	if err != nil {
		return err
	}
	errP := monoclass.Err(lab, res.Classifier)
	fmt.Printf("points:           %d\n", len(pts))
	fmt.Printf("dominance width:  %d\n", res.Width)
	fmt.Printf("probes:           %d (%.1f%% of n)\n", o.Distinct(), 100*float64(o.Distinct())/float64(len(pts)))
	fmt.Printf("sample |Σ|:       %d\n", len(res.Sigma))
	fmt.Printf("learned error:    %d\n", errP)
	fmt.Printf("optimal error k*: %g\n", kstar)
	if kstar > 0 {
		fmt.Printf("ratio:            %.3f (target ≤ %.3f)\n", float64(errP)/kstar, 1+*eps)
	}
	fmt.Printf("phases:           decompose=%s probe=%s solve=%s\n",
		res.Timing.Decompose, res.Timing.Probe, res.Timing.Solve)
	printAnchors(res.Classifier)
	return saveModel(*save, res.Classifier)
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	in := fs.String("in", "", "labeled CSV to evaluate on")
	model := fs.String("model", "", "model JSON written by 'passive -save' or 'active -save'")
	fs.Parse(args)
	if *in == "" || *model == "" {
		return fmt.Errorf("-in and -model are required")
	}
	ws, err := loadCSV(*in)
	if err != nil {
		return err
	}
	if len(ws) == 0 {
		return fmt.Errorf("empty input")
	}
	f, err := os.Open(*model)
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := monoclass.LoadModel(f)
	if err != nil {
		return err
	}
	if h.Dim() != len(ws[0].P) {
		return fmt.Errorf("model dimension %d does not match data dimension %d", h.Dim(), len(ws[0].P))
	}
	fmt.Printf("weighted error: %g of %g total weight\n", monoclass.WErr(ws, h), ws.TotalWeight())
	return nil
}

func runWidth(args []string) error {
	fs := flag.NewFlagSet("width", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ws, err := loadCSV(*in)
	if err != nil {
		return err
	}
	pts := make([]monoclass.Point, len(ws))
	for i, wp := range ws {
		pts[i] = wp.P
	}
	dec := monoclass.ChainDecompose(pts)
	fmt.Printf("points:          %d\n", len(pts))
	fmt.Printf("dominance width: %d\n", dec.Width)
	fmt.Printf("chains:          %d\n", len(dec.Chains))
	longest, shortest := 0, len(pts)
	for _, c := range dec.Chains {
		if len(c) > longest {
			longest = len(c)
		}
		if len(c) < shortest {
			shortest = len(c)
		}
	}
	fmt.Printf("chain lengths:   min=%d max=%d\n", shortest, longest)
	fmt.Printf("max antichain:   %d points (certificate)\n", len(dec.Antichain))
	return nil
}

func printAnchors(h *monoclass.AnchorSet) {
	anchors := h.Anchors()
	fmt.Printf("classifier:       %d anchor(s); h(x)=1 iff x dominates one of:\n", len(anchors))
	limit := len(anchors)
	if limit > 10 {
		limit = 10
	}
	for _, a := range anchors[:limit] {
		fmt.Printf("  %v\n", a)
	}
	if len(anchors) > limit {
		fmt.Printf("  ... and %d more\n", len(anchors)-limit)
	}
}

func runAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	problemPath := fs.String("problem", "", "prepared problem JSON written by 'prepare' (alternative to -in)")
	mode := fs.String("mode", "auto", "matrix mode: auto, dense, blocked, implicit")
	fs.Parse(args)
	p, err := prepareArg(*in, *problemPath, *mode, 0)
	if err != nil {
		return err
	}
	report, err := monoclass.AuditPrepared(p)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func runHasse(args []string) error {
	fs := flag.NewFlagSet("hasse", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ws, err := loadCSV(*in)
	if err != nil {
		return err
	}
	lab := make([]monoclass.LabeledPoint, len(ws))
	for i, wp := range ws {
		lab[i] = monoclass.LabeledPoint{P: wp.P, Label: wp.Label}
	}
	dot, err := monoclass.HasseDOT(lab)
	if err != nil {
		return err
	}
	fmt.Print(dot)
	return nil
}

func runTradeoff(args []string) error {
	fs := flag.NewFlagSet("tradeoff", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	levelsArg := fs.String("levels", "20,10,5,3", "comma-separated quantization levels")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ws, err := loadCSV(*in)
	if err != nil {
		return err
	}
	var levels []int
	for _, part := range strings.Split(*levelsArg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return fmt.Errorf("invalid level %q", part)
		}
		levels = append(levels, v)
	}
	lab := make([]monoclass.LabeledPoint, len(ws))
	for i, wp := range ws {
		lab[i] = monoclass.LabeledPoint{P: wp.P, Label: wp.Label}
	}
	stats, err := monoclass.QuantizeTradeoff(lab, levels)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-8s %s\n", "levels", "width", "k*")
	for _, s := range stats {
		fmt.Printf("%-8d %-8d %g\n", s.Levels, s.Width, s.KStar)
	}
	return nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "", "trained model JSON to serve")
	in := fs.String("in", "", "labeled CSV to train on (passive solver) when no -model is given")
	addr := fs.String("addr", ":8080", "listen address (127.0.0.1:0 for an ephemeral port)")
	maxBatch := fs.Int("max-batch", 32, "largest micro-batch dispatched to the classifier")
	maxWait := fs.Duration("max-wait", 2*time.Millisecond, "longest an under-full batch is held open (negative: greedy)")
	queue := fs.Int("queue", 1024, "bounded intake queue capacity")
	spotAudit := fs.Bool("spot-audit", false, "re-check monotonicity of candidate models before promotion")
	fs.Parse(args)
	if (*model == "") == (*in == "") {
		return fmt.Errorf("exactly one of -model or -in is required")
	}

	var h *monoclass.AnchorSet
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			return err
		}
		h, err = monoclass.LoadModel(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		ws, err := loadCSV(*in)
		if err != nil {
			return err
		}
		sol, err := monoclass.OptimalPassive(ws)
		if err != nil {
			return err
		}
		h = sol.Classifier
		fmt.Printf("trained on %d points, optimal weighted error %g\n", len(ws), sol.WErr)
	}

	cfg := monoclass.ServeConfig{
		Batch: monoclass.BatcherConfig{MaxBatch: *maxBatch, MaxWait: *maxWait, QueueCap: *queue},
	}
	if *spotAudit {
		cfg.Audit = monoclass.SpotAudit(nil)
	}
	return monoclass.Serve(context.Background(), *addr, h, cfg, func(bound string) {
		fmt.Printf("serving dim-%d model (%d anchors) on %s\n", h.Dim(), len(h.Anchors()), bound)
	})
}
