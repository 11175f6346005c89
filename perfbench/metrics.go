package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; TestCatalogueMatchesBenchmarkJSON keeps them in step.
type metricDef struct {
	name, unit string
}

// endToEnd is reported by every untraced run; NOTES.md defines each.
// "op" is each workload's own user-visible operation:
//
//	designer-flow    one encapsulated Run* call (tool run)
//	checkin-commit   CheckInData start → SaveTo return (durable checkin)
//	replicated-read  Reserve start → replica WaitFor return (visible write)
//
// Costs are CPU time, which the host's steal does not stretch; the
// wall-clock latencies are printed and reported per layer instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer is reported by every traced run. A layer a workload leaves
// idle reads 0. The workload.* entries are wall-clock end-to-end figures
// from the traced run's untraced reference pass; they are not bounded
// because CPU steal on a shared VM host moves them by more than any
// bound.
var perLayer = []metricDef{
	{"workload.op_p50_ms", "ms"},
	{"workload.op_p99_ms", "ms"},
	{"workload.ops_per_s", "1/s"},
	{"workload.fail_ratio", "ratio"},
	{"workload.space_amp", "ratio"},
	{"workload.replica_read_p50_ms", "ms"},
	{"workload.replica_read_p99_ms", "ms"},
	{"workload.replica_reads_per_s", "1/s"},

	{"core.schematic_entry_ms", "ms"},
	{"core.simulate_ms", "ms"},
	{"core.layout_entry_ms", "ms"},

	{"fmcad.meta_writes_per_tool_run", "count"},
	{"fmcad.meta_bytes", "B"},
	{"fmcad.session_open_ms", "ms"},
	{"fmcad.meta_write_ms", "ms"},
	{"fmcad.checkout_conflicts", "count"},

	{"tools.simulate_ms", "ms"},
	{"tools.layout_ms", "ms"},

	{"jcf.checkin_ms", "ms"},
	{"jcf.checkin_read_ms", "ms"},
	{"jcf.checkin_digest_ms", "ms"},
	{"jcf.checkin_apply_ms", "ms"},
	{"jcf.publish_ms", "ms"},
	{"jcf.publish_gate_ms", "ms"},
	{"jcf.reserve_ms", "ms"},
	{"jcf.save_ms", "ms"},
	{"jcf.save_self_ms", "ms"},
	{"jcf.compaction_ms", "ms"},
	{"jcf.compactions_per_1k_saves", "count"},
	{"jcf.reserve_conflicts", "count"},

	{"oms.apply_ms", "ms"},
	{"oms.ops_per_checkin", "count"},
	{"oms.stripe_wait_ms", "ms"},
	{"oms.snapshot_hold_ms", "ms"},
	{"oms.apply_replicated_ms", "ms"},
	{"oms.feed_evictions", "count"},
	{"oms.feed_lag_trips", "count"},

	{"backend.puts_per_save", "count"},
	{"backend.deletes_per_save", "count"},
	{"backend.gets_per_save", "count"},
	{"backend.put_delta_ms", "ms"},
	{"backend.put_small_ms", "ms"},
	{"backend.put_base_ms", "ms"},
	{"backend.delete_ms", "ms"},
	{"backend.bytes_written_per_user_byte", "ratio"},

	{"blobstore.put_ms", "ms"},
	{"blobstore.upload_ms", "ms"},
	{"blobstore.queue_depth_max", "count"},
	{"blobstore.dedup_ratio", "ratio"},
	{"blobstore.fetch_ms", "ms"},
	{"blobstore.fetch_share", "ratio"},

	{"repl.waitfor_ms", "ms"},
	{"repl.frames_per_write", "count"},
	{"repl.bytes_per_write", "B"},
	{"repl.conn_send_ms", "ms"},
	{"repl.conn_recv_ms", "ms"},
	{"repl.replica_lag_max", "count"},
	{"repl.reconnects", "count"},
	{"repl.bootstraps", "count"},

	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_share", "ratio"},

	{"obs.trace_overhead_pct", "%"},
}

// newLayers returns a per-layer map with every metric at 0 (idle), for a
// workload to fill in.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
