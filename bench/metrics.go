package main

// metricDef names one metric and its unit. The two tables below are the
// benchmark's schema: BENCHMARK.json lists exactly these names and units
// (TestSchemaMatchesBenchmarkJSON holds the two in step), an untraced run
// prints every end-to-end metric and a traced run every per-layer metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the numbers a user of the system sees, one value per
// workload, measured with tracing off. No wall-clock time is among them as
// such: on the shared reference box wall times move 20 to 50 % with the
// other tenants' load (README.md, "Noise"). Op time is reported against the
// workload's yardstick (yard.go) — fixed work outside the repository's
// code, run in the same rounds — and work as counts that repeat exactly.
// The raw wall-clock readings are the driver.* rows.
var endToEnd = []metricDef{
	{"setup_s", "s"},             // wall seconds of one set-up of the program under test, median over the run's set-ups, at the yardstick's reference speed
	{"op_vs_yard", "ratio"},      // primary block time per op / yardstick block time per op, median over rounds
	{"op_tail_vs_yard", "ratio"}, // slowest primary op of a round / the round's median yardstick op, median over rounds
	{"ours_vs_ref", "ratio"},     // mean primary op time / mean reference op time within a round, median over rounds
	{"cpu_per_wall", "ratio"},    // process CPU seconds per wall second of a primary block, median over blocks
	{"allocs_per_op", "count"},   // heap objects the process allocates per primary op, median over blocks
	{"alloc_kb_per_op", "kB"},    // heap bytes the process allocates per primary op, median over blocks
	{"peak_rss_mb", "MB"},        // VmHWM of the benchmark process
}

// perLayer are the single-layer numbers, named <package>.<metric>. A
// workload that never enters a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"driver.ops_total", "count"},
	{"driver.samples", "count"},
	{"driver.op_p50_ms", "ms"},
	{"driver.op_p95_ms", "ms"},
	{"driver.op_p95_over_p50", "ratio"},
	{"driver.ops_per_s", "1/s"},
	{"driver.cpu_ms_per_op", "ms"},
	{"driver.yard_p50_ms", "ms"},
	{"driver.setup_wall_s", "s"},
	{"driver.pass_spread", "ratio"},
	{"driver.trace_overhead", "ratio"},
	{"driver.goroutines_leaked", "count"},
	{"driver.failed_frac", "ratio"},
	{"driver.op_self_frac", "ratio"},

	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
	{"host.memcpy_MBps", "MB/s"},
	{"host.loopback_rtt_us", "us"},

	{"topology.parse_us", "us"},
	{"topology.hash_us", "us"},
	{"topology.apply_delta_us", "us"},

	{"schedule.build_ms", "ms"},
	{"schedule.verify_ms", "ms"},
	{"schedule.phases", "count"},
	{"schedule.greedy_parallel_ms", "ms"},
	{"schedule.reschedule_ms", "ms"},
	{"schedule.reschedule_phase_drift", "ratio"},

	{"syncplan.build_ms", "ms"},
	{"syncplan.build_share", "ratio"},
	{"syncplan.build_n48_ms", "ms"},
	{"syncplan.build_n64_ms", "ms"},
	{"syncplan.conflict_pairs", "count"},
	{"syncplan.syncs", "count"},
	{"syncplan.alloc_mb_per_build", "MB"},

	{"alltoall.program_compile_ms", "ms"},
	{"alltoall.goodput_MBps", "MB/s"},
	{"alltoall.lam_p50_ms", "ms"},
	{"alltoall.mpich_p50_ms", "ms"},
	{"alltoall.lam_p95_ms", "ms"},
	{"alltoall.mpich_p95_ms", "ms"},
	{"alltoall.sync_msgs_per_op", "count"},
	{"alltoall.allocs_per_op", "count"},
	{"alltoall.alloc_bytes_per_op", "B"},
	{"alltoall.sync_wait_frac", "ratio"},
	{"alltoall.transmit_frac", "ratio"},
	{"alltoall.enter_skew_ms", "ms"},

	{"tcp.world_setup_ms", "ms"},
	{"tcp.join_mesh_ms", "ms"},
	{"tcp.data_frames_per_op", "count"},
	{"tcp.acks_per_op", "count"},
	{"tcp.writevs_per_op", "count"},
	{"tcp.coalescing", "ratio"},
	{"tcp.borrowed_ratio", "ratio"},
	{"tcp.zero_copy_recv_ratio", "ratio"},
	{"tcp.payload_copies_per_op", "count"},
	{"tcp.wire_overhead", "ratio"},
	{"tcp.retransmits", "count"},
	{"tcp.reconnects", "count"},
	{"tcp.dup_discards", "count"},
	{"tcp.pingpong_us", "us"},
	{"tcp.stream_MBps", "MB/s"},

	{"shm.direct_ratio", "ratio"},
	{"shm.ring_transits_per_op", "count"},
	{"shm.overflow_per_op", "count"},
	{"shm.copies_per_op", "count"},
	{"shm.pingpong_us", "us"},
	{"mem.a2a_1k_p50_ms", "ms"},

	{"simnet.events_per_op", "count"},
	{"simnet.flows_per_op", "count"},
	{"simnet.events_per_s", "1/s"},
	{"simnet.allocs_per_op", "count"},
	{"simnet.lam_cell_ms", "ms"},
	{"simnet.mpich_cell_ms", "ms"},
	{"simnet.ours_sim_s", "s"},
	{"simnet.lam_sim_s", "s"},
	{"simnet.mpich_sim_s", "s"},
	{"simnet.ours_vs_lam_sim", "ratio"},
	{"simnet.peak_frac", "ratio"},
	{"simnet.peak_frac_c", "ratio"},
	{"simnet.bottleneck_util", "ratio"},

	{"obsv.op_overhead", "ratio"},
	{"obsv.events_per_op", "count"},
	{"collect.ingest_spans_per_s", "1/s"},
	{"collect.analyze_ms", "ms"},

	{"sched.fetch_syncs_p50_ms", "ms"},
	{"sched.fetch_nosyncs_p50_ms", "ms"},
	{"sched.cold_fetch_ms", "ms"},
	{"sched.update_p50_ms", "ms"},
	{"sched.hit_ratio", "ratio"},
	{"sched.compiles", "count"},
	{"sched.patches_per_update", "count"},
	{"sched.dropped_per_update", "count"},
	{"sched.schedule_warm_us", "us"},
	{"sched.syncplan_ms", "ms"},
	{"sched.response_kb", "kB"},
}

// exactLayer are the per-layer counts that depend only on the code, the seed
// and -seconds, never on timing; `-check` requires them to repeat
// bit-for-bit between two sets.
var exactLayer = []string{
	"driver.ops_total",
	"schedule.phases",
	"schedule.reschedule_phase_drift",
	"syncplan.conflict_pairs",
	"syncplan.syncs",
	"alltoall.sync_msgs_per_op",
	"tcp.data_frames_per_op",
	"tcp.retransmits",
	"tcp.reconnects",
	"tcp.dup_discards",
	"simnet.events_per_op",
	"simnet.flows_per_op",
	"simnet.ours_sim_s",
	"simnet.lam_sim_s",
	"simnet.mpich_sim_s",
	"simnet.ours_vs_lam_sim",
	"simnet.peak_frac",
	"simnet.peak_frac_c",
	"simnet.bottleneck_util",
	"obsv.events_per_op",
	"driver.goroutines_leaked",
	"driver.failed_frac",
}
