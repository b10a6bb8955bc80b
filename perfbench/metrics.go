package main

// metricDef names one printed metric. BENCHMARK.json lists the same
// names and units; metrics_test.go holds the two lists equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEndMetrics are printed by every untraced run, on every workload.
// Each is defined on every workload (README.md, "End-to-end metrics").
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"classify_pts_per_s", "pts/s"},
	{"classify_p50_ms", "ms"},
	{"learn_fresh_p50_ms", "ms"},
	{"learn_fresh_p90_ms", "ms"},
}

// layerMetrics are printed by every traced run; a layer the workload
// does not exercise reports 0.
var layerMetrics = []metricDef{
	{"problem.prepare_ms", "ms"},
	{"domgraph.build_ms", "ms"},
	{"chains.decompose_ms", "ms"},
	{"chains.width", "count"},
	{"chains.seed_chains", "count"},
	{"matching.augmentations", "count"},
	{"matching.phases", "count"},
	{"passive.network_ms", "ms"},
	{"passive.contending", "count"},
	{"passive.edges", "count"},
	{"maxflow.solve_ms", "ms"},
	{"classidx.build_ms", "ms"},
	{"classidx.kernel_ns_per_pt", "ns"},
	{"classifier.anchors", "count"},
	{"serve.http_ns_per_pt", "ns"},
	{"serve.rejected", "count"},
	{"serve.bad_requests", "count"},
	{"serve.swaps", "count"},
	{"serve.audit_rejects", "count"},
	{"online.resolve_ms", "ms"},
	{"online.apply_us", "us"},
	{"online.exact_solves", "count"},
	{"online.interim_adoptions", "count"},
	{"online.publish_rejects", "count"},
	{"online.compactions", "count"},
	{"client.late_ms", "ms"},
	{"client.mean_ms", "ms"},
	{"client.p90_ms", "ms"},
	{"client.p99_ms", "ms"},
}

// tracedPrefix marks an end-to-end metric measured with tracing on;
// subtracting the untraced run's value gives the tracing overhead.
const tracedPrefix = "traced."

// perLayerMetrics is the traced run's metric list: the layer metrics
// plus every end-to-end metric measured under tracing.
func perLayerMetrics() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, d := range endToEndMetrics {
		out = append(out, metricDef{tracedPrefix + d.Name, d.Unit})
	}
	return out
}
