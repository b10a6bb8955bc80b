package main

import (
	"fmt"
	"time"
)

// sizes fixes every input size and rate. fullSizes is what the command
// runs; the tests run the same code on smaller sizes.
type sizes struct {
	NoisyN     int     // train-noisy points (d=3)
	LargeN     int     // train-large points (d=2 band, 16 chains)
	ServeN     int     // points the served model is trained on (d=3)
	Body       int     // points per /classify/batch body
	Bodies     int     // distinct query bodies, cycled through
	SetupS     float64 // serve sets up again and again this long, half before the timed phase, half after
	LearnSetup float64 // the same for serve-learn, whose set-ups also build the online updater
	Rate       float64 // open-loop /classify/batch requests per second
	LimitMS    float64 // latency limit; failed requests count at it
	LearnRate  float64 // open-loop /learn batches per second
	LearnBatch int     // deltas per /learn batch
	GraceS     float64 // drain time after the schedule ends
}

var fullSizes = sizes{
	NoisyN:     16384,
	LargeN:     262144,
	ServeN:     4096,
	Body:       512,
	Bodies:     64,
	SetupS:     6,
	LearnSetup: 10,
	Rate:       openLoopRate,
	LimitMS:    latencyLimitMS,
	LearnRate:  learnRate,
	LearnBatch: 8,
	GraceS:     3,
}

// The open-loop rates and the latency limit are also written into the
// workloads' "why" in BENCHMARK.json; metrics_test.go checks they agree.
const (
	openLoopRate   = 400 // /classify/batch requests per second
	latencyLimitMS = 250
	learnRate      = 20 // /learn batches per second
)

// minSetups is the fewest set-ups a run makes: the set-up trains of
// train-*, and each half of the set-up phase of serve-*. setup_s is
// their median.
const minSetups = 3

// outcome is what one workload run produced.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	errs      []string // failed output checks
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// setE2E records the end-to-end metrics of a traced run under the
// traced. prefix, and of an untraced run under their own names.
func (o *outcome) setE2E(tr *tracer, name string, v float64) {
	if tr != nil {
		o.layer[tracedPrefix+name] = v
		return
	}
	o.e2e[name] = v
}

type workloadFunc func(sz sizes, seed int64, seconds float64, tr *tracer) *outcome

var workloads = map[string]workloadFunc{
	"train-noisy": trainNoisy,
	"train-large": trainLarge,
	"serve":       serveOnly,
	"serve-learn": serveLearn,
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
