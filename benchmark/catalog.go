package main

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units with their directions and bounds; TestCatalogMatchesContract
// keeps the two in step.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of either runtime sees. Every workload
// reports every one of them (README "End-to-end metrics" says what each
// means on each workload). Latencies are in units of Δ, the paper's
// unit: on sim-* workloads they are simulated time, exact functions of
// (scenario, seed); on tcp-* workloads they are wall-clock.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"allocs_m", "1e6"},
	{"peak_rss_mb", "MB"},
	{"words_per_decision", "words"},
	{"latency_p50", "delta"},
	{"latency_tail", "delta"},
	{"latency_mean", "delta"},
}

// perLayer are the metrics of single layers (layer = package name), from
// the traced run (boundary spans, "T1") and the isolated kernels ("T2",
// the *_ns names). A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	// What the service delivered during the traced run. These can be 0
	// on a healthy run, so they cannot carry a bound relative to a median.
	{"service.throughput_per_s", "1/s"},
	{"service.slo_miss_share", "share"},
	{"service.stall_max", "delta"},
	{"service.failed_share", "share"},
	{"service.tail_pct", "%"},
	{"service.samples", "count"},

	{"crypto.sign.calls", "count"},
	{"crypto.sign.self_s", "s"},
	{"crypto.verify.calls", "count"},
	{"crypto.verify.self_s", "s"},
	{"crypto.aggregate.calls", "count"},
	{"crypto.aggregate.self_s", "s"},
	{"crypto.verify_agg.calls", "count"},
	{"crypto.verify_agg.self_s", "s"},
	{"crypto.verify_agg.failed", "count"},
	{"crypto.verify_agg.per_cert", "ratio"},
	{"crypto.sim.verify_agg_miss_ns", "ns"},
	{"crypto.sim.verify_agg_hit_ns", "ns"},
	{"crypto.sim.sign_ns", "ns"},
	{"crypto.ed.verify_ns", "ns"},
	{"crypto.ed.verify_agg_ns", "ns"},

	{"sim.events", "count"},
	{"sim.scheduled", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.self_s", "s"},
	{"sim.max_pending", "count"},
	{"sim.heap_op_ns", "ns"},
	{"sim.multicast_ns_per_rcpt", "ns"},

	{"network.send.calls", "count"},
	{"network.broadcast.calls", "count"},
	{"network.send.self_s", "s"},
	{"network.link.calls", "count"},
	{"network.link.self_s", "s"},
	{"network.link.dropped", "count"},
	{"network.link.duplicated", "count"},
	{"network.omitted", "count"},

	{"metrics.onsend.calls", "count"},
	{"metrics.onsend.self_s", "s"},
	{"metrics.record_commit.self_s", "s"},
	{"metrics.onsend_ns", "ns"},

	{"quorum.add_ns", "ns"},
	{"msg.words_ns", "ns"},

	{"replica.deliver.calls", "count"},
	{"replica.deliver.self_s", "s"},

	{"core.handle.calls", "count"},
	{"core.handle.self_s", "s"},
	{"core.timer.calls", "count"},
	{"core.timer.self_s", "s"},
	{"core.sync_msgs", "count"},
	{"core.heavy_sync_views", "count"},
	{"core.final_view_spread", "views"},

	{"viewcore.handle.calls", "count"},
	{"viewcore.handle.self_s", "s"},

	{"hotstuff.handle.calls", "count"},
	{"hotstuff.handle.self_s", "s"},
	{"hotstuff.cmds_per_block", "ratio"},
	{"hotstuff.blocks_committed", "count"},

	{"statemachine.apply.calls", "count"},
	{"statemachine.apply.self_s", "s"},
	{"workload.submitted", "count"},
	{"workload.submit.self_s", "s"},
	{"workload.gen_late_p99_ms", "ms"},

	{"harness.boot.self_s", "s"},
	{"harness.sweep.worker_util", "share"},
	{"harness.sweep.tail_idle_s", "s"},
	{"harness.sweep.cells", "count"},
	{"harness.cell_s.lumiere", "s"},
	{"harness.cell_s.basic-lumiere", "s"},
	{"baseline.cell_s.lp22", "s"},
	{"baseline.cell_s.fever", "s"},
	{"baseline.cell_s.cogsworth", "s"},
	{"baseline.cell_s.nk20", "s"},
	{"adversary.attack_cell_s", "s"},

	{"nettcp.send.calls", "count"},
	{"nettcp.send.self_s", "s"},
	{"nettcp.delivered", "count"},
	{"nettcp.queue_drops", "count"},
	{"nettcp.write_drops", "count"},
	{"nettcp.cond_drops", "count"},
	{"nettcp.decode_errors", "count"},
	{"nettcp.redials", "count"},
	{"nettcp.delayed", "count"},
	{"nettcp.pair.msgs_per_s", "1/s"},
	{"nettcp.pair.us_per_msg", "us"},
	{"nettcp.pair.allocs_per_msg", "count"},

	{"runtime.cpu_s", "s"},
	{"runtime.cpu_ms_per_decision", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.warmup_s", "s"},
	{"runtime.trace_overhead_pct", "%"},
}
