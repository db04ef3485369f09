package main

// metricDef names one metric the benchmark reports. The tables below are the
// program's half of BENCHMARK.json: TestBenchmarkJSONMatches holds the two
// together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median a change may lose
}

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"join_p50_us", "us", "lower", 0.25},
	{"join_p95_us", "us", "lower", 0.25},
	{"restore_p50_us", "us", "lower", 0.25},
	{"restore_p95_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.08},
	{"rd_mean", "delay", "lower", 0.25},
	{"delay_stretch", "ratio", "lower", 0.03},
}

// perLayer is the ledger of the traced run, outside in. A layer a workload
// does not reach reads 0 there.
var perLayer = []metricDef{
	{name: "pqueue.pushpop_ns", unit: "ns", better: "lower"},

	{name: "graph.sweep_absorb_us", unit: "us", better: "lower"},
	{name: "graph.sweep_settled_per_join", unit: "count", better: "lower"},
	{name: "graph.nearest_us", unit: "us", better: "lower"},
	{name: "graph.nearest_settled", unit: "count", better: "lower"},
	{name: "graph.spf_hit_ns", unit: "ns", better: "lower"},
	{name: "graph.spf_miss_us", unit: "us", better: "lower"},
	{name: "graph.spf_delta_us", unit: "us", better: "lower"},
	{name: "graph.spf_hit_ratio", unit: "ratio", better: "higher"},
	{name: "graph.spf_full_runs_per_kop", unit: "count", better: "lower"},
	{name: "graph.spf_delta_runs_per_kop", unit: "count", better: "lower"},
	{name: "graph.settled_per_op", unit: "count", better: "lower"},
	{name: "graph.mask_fold_ns", unit: "ns", better: "lower"},
	{name: "graph.freeze_s", unit: "s", better: "lower"},
	{name: "graph.bytes", unit: "B", better: "lower"},

	{name: "multicast.graft_leave_ns", unit: "ns", better: "lower"},
	{name: "multicast.tree_nodes", unit: "count", better: "lower"},
	{name: "multicast.bytes", unit: "B", better: "lower"},

	{name: "core.join_us", unit: "us", better: "lower"},
	{name: "core.joinbatch_us_per_member", unit: "us", better: "lower"},
	{name: "core.leave_us", unit: "us", better: "lower"},
	{name: "core.recover_us", unit: "us", better: "lower"},
	{name: "core.repair_us", unit: "us", better: "lower"},
	{name: "core.reshape_us", unit: "us", better: "lower"},
	{name: "core.candidates_per_join", unit: "count", better: "lower"},
	{name: "core.enum_settled_per_join", unit: "count", better: "lower"},
	{name: "core.heal_settled_per_restore", unit: "count", better: "lower"},
	{name: "core.shr_updates_per_op", unit: "count", better: "lower"},
	{name: "core.reshapes_per_op", unit: "count", better: "lower"},
	{name: "core.bytes", unit: "B", better: "lower"},
	{name: "core.residue_share", unit: "ratio", better: "lower"},

	{name: "hierarchy.new_s", unit: "s", better: "lower"},
	{name: "hierarchy.join_us", unit: "us", better: "lower"},
	{name: "hierarchy.recover_us", unit: "us", better: "lower"},
	{name: "hierarchy.leave_us", unit: "us", better: "lower"},
	{name: "hierarchy.settled_per_restore", unit: "count", better: "lower"},
	{name: "hierarchy.subgraph_bytes", unit: "B", better: "lower"},
	{name: "hierarchy.self_share", unit: "ratio", better: "lower"},

	{name: "server.http_join_us", unit: "us", better: "lower"},
	{name: "server.actor_join_us", unit: "us", better: "lower"},
	{name: "server.core_join_us", unit: "us", better: "lower"},
	{name: "server.http_self_us", unit: "us", better: "lower"},
	{name: "server.mailbox_self_us", unit: "us", better: "lower"},
	{name: "server.http_get_us", unit: "us", better: "lower"},
	{name: "server.fail_us", unit: "us", better: "lower"},
	{name: "server.batch_size_mean", unit: "count", better: "higher"},
	{name: "server.refused", unit: "count", better: "lower"},

	{name: "topology.generate_s", unit: "s", better: "lower"},
	{name: "topology.nodes", unit: "count", better: "lower"},
	{name: "topology.edges", unit: "count", better: "lower"},

	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.bytes_per_op", unit: "B", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.cpu_us_per_op", unit: "us", better: "lower"},

	{name: "cal.factor_p50", unit: "ratio", better: "lower"},
	{name: "cal.factor_spread", unit: "ratio", better: "lower"},
	{name: "cal.slices_unsteady", unit: "count", better: "lower"},
	{name: "cal.burst_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
}

// pinnedDigests holds, per workload/scale/seed, the behaviour digest this
// commit produces: what joiners were given, who each cut disconnected and
// over what distance they came back, what readers saw. A run at a pinned key
// that digests differently is reported incorrect, so a change that alters
// behaviour cannot pass as a change that only alters speed. (The digest
// hashes float64 bit patterns; these were recorded on amd64, where the
// compiler fuses no multiply-adds.)
var pinnedDigests = map[string]uint64{
	"paper_restore/full/2005":  0xe113c289b0289f50,
	"mega_admit/full/2005":     0x4a7e110fc2a2b893,
	"hier_restore/full/2005":   0x5a66caabff6da76a,
	"serve_mixed/full/2005":    0xb6b0f06fb0a90d4f,
	"paper_restore/smoke/2005": 0x5629b9cf820c674,
	"mega_admit/smoke/2005":    0x3c521b08e9a50060,
	"hier_restore/smoke/2005":  0x5f5ae8a949538522,
	"serve_mixed/smoke/2005":   0x8fcd93a2be0b3636,
}
