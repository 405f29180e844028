package main

import "fmt"

// spec names a reported metric and its unit; the lists mirror
// BENCHMARK.json at the repository root (a self-test keeps them equal).
type spec struct{ name, unit string }

// endToEnd is what an untraced run reports: what a user of the broadcast
// sees, on every workload, in figures steady enough to bound.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"query_ms_p50", "ms"},
	{"cpu_s", "s"},
	{"latency_slots_mean", "slots"},
	{"tuning_pkts_mean", "pkts"},
	{"site_ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer is what a traced run reports, named by module.
var perLayer = []spec{
	// Build chain, replayed stage by stage on the workload's data.
	{"voronoi.cells_ms", "ms"},
	{"region.weld_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.page_ms", "ms"},
	{"core.flatten_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"stream.render_ms", "ms"},
	{"fabric.partition_ms", "ms"},
	{"core.index_packets", "pkts"},
	{"stream.cycle_frames", "frames"},
	{"bench.setup_unaccounted_frac", "fraction"},
	// Serve.
	{"stream.serve_ns_per_frame", "ns"},
	{"stream.serve_ns_per_frame_lossy", "ns"},
	{"stream.frames_per_query", "frames"},
	// Client.
	{"core.client_decode_ns_per_pkt", "ns"},
	{"stream.tune_probe", "pkts"},
	{"fabric.tune_directory", "pkts"},
	{"stream.tune_index", "pkts"},
	{"stream.tune_data", "pkts"},
	{"stream.tune_recover", "pkts"},
	{"stream.dozed_per_query", "frames"},
	{"fabric.hops_per_query", "count"},
	{"stream.recoveries_per_query", "count"},
	{"stream.epoch_restarts_per_query", "count"},
	// Channel.
	{"channel.drop_frac", "fraction"},
	{"channel.corrupt_frac", "fraction"},
	// Ingest: a site op from Enqueue until the cut carrying it is
	// published, then its parts.
	{"ingest.op_visible_ms_p50", "ms"},
	{"ingest.op_visible_ms_p99", "ms"},
	{"ingest.admit_us_p50", "us"},
	{"ingest.admit_us_p99", "us"},
	{"ingest.queue_wait_ms_p50", "ms"},
	{"ingest.queue_wait_ms_p99", "ms"},
	{"ingest.coalesce_ratio", "ratio"},
	{"ingest.batch_ops_p50", "count"},
	{"ingest.shed_ops", "count"},
	{"bench.op_unaccounted_frac", "fraction"},
	// Cut.
	{"stream.cut_ms_p50", "ms"},
	{"stream.cut_ms_p99", "ms"},
	{"stream.cut_busy_frac", "fraction"},
	{"stream.cuts", "count"},
	{"stream.cut_full_compile_ms_p50", "ms"},
	{"stream.cut_incremental_speedup", "ratio"},
	{"bench.cut_noncompile_frac", "fraction"},
	// Runtime.
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.heap_live_mb_end", "MB"},
	// Health of the run itself. The query tail and the closed-loop query
	// rate are end-to-end figures, but on a shared host they follow the
	// hypervisor's CPU steal (the report records its share), so they are
	// reported here without a bound.
	{"bench.query_ms_p99", "ms"},
	{"bench.queries_per_s", "1/s"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.wrong_answers", "count"},
	{"bench.tolerance_accepts", "count"},
	{"bench.failed_frac", "fraction"},
}

// pick selects the listed metrics, failing if the run did not measure
// one or measured it in another unit.
func pick(all map[string]metric, list []spec) (map[string]metric, error) {
	out := make(map[string]metric, len(list))
	for _, s := range list {
		m, ok := all[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if m.Unit != s.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", s.name, m.Unit, s.unit)
		}
		out[s.name] = m
	}
	return out, nil
}
