package main

import "strings"

// metric is one entry of the metric dictionary. BENCHMARK.json lists the
// same names, units and directions (bench_test.go holds the two together);
// README.md says where each is measured and what it should move.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the gated metrics: what a user of the service sees, measured
// with the benchmark's tracing off. Every workload reports every one of
// them, so a figure only one workload has (the write latency) is listed
// with the per-layer metrics instead.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"stream_ttft_p50_ms", "ms", "lower"},
	{"stream_rows_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mib", "MiB", "lower"},
}

// perLayer are the attribution metrics of the traced run, named after the
// module they measure. The first block comes from the client side of the
// fixed-work load phase, the second from server counters scraped around it
// (class a), the rest from calling the layers in-process (class b).
var perLayer = []metric{
	{"client.p99_ms", "ms", "lower"},
	{"client.write_p50_ms", "ms", "lower"},

	{"server.queries", "count", "lower"},
	{"server.streams", "count", "lower"},
	{"server.coalesced", "count", "higher"},
	{"server.shed", "count", "lower"},
	{"cache.result_hit_ratio", "ratio", "higher"},
	{"cache.plan_hit_ratio", "ratio", "higher"},
	{"cache.result_evictions", "count", "lower"},
	{"cache.carried", "count", "higher"},
	{"cache.maintained", "count", "higher"},
	{"cache.invalidated", "count", "lower"},
	{"database.updates", "count", "lower"},
	{"eval.subformula_evals", "count", "lower"},
	{"eval.fix_iterations", "count", "lower"},
	{"eval.tuples_touched", "count", "lower"},
	{"eval.acyclic_fastpath", "count", "higher"},
	{"eval.rep_switches", "count", "lower"},
	{"server.stage_compile_ms_per_op", "ms", "lower"},
	{"server.stage_cache_lookup_ms_per_op", "ms", "lower"},
	{"server.stage_admission_wait_ms_per_op", "ms", "lower"},
	{"server.stage_eval_ms_per_op", "ms", "lower"},
	{"server.stage_extract_ms_per_op", "ms", "lower"},
	{"server.stage_stream_drain_ms_per_op", "ms", "lower"},
	{"router.proxied", "count", "lower"},
	{"router.retries", "count", "lower"},
	{"router.hedges", "count", "lower"},

	{"parser.parse_us", "us", "lower"},
	{"plan.compile_us", "us", "lower"},
	{"plan.nodes", "count", "lower"},
	{"eval.dense_ms", "ms", "lower"},
	{"eval.sparse_ms", "ms", "lower"},
	{"eval.acyclic_ms", "ms", "lower"},
	{"eval.maintain_ms", "ms", "lower"},
	{"eval.recompute_ms", "ms", "lower"},
	{"eval.enum_first_us", "us", "lower"},
	{"relation.dense_and_ns", "ns", "lower"},
	{"relation.dense_exists_axis_ns", "ns", "lower"},
	{"relation.sparse_intersect_ns", "ns", "lower"},
	{"relation.project_ns", "ns", "lower"},
	{"bitset.or_ns_per_kword", "ns", "lower"},
	{"cache.result_get_ns", "ns", "lower"},
	{"cache.result_put_ns", "ns", "lower"},
	{"cache.key_ns", "ns", "lower"},
	{"database.apply_us", "us", "lower"},
	{"database.fingerprint_ns", "ns", "lower"},
	{"database.parse_ms", "ms", "lower"},
	{"server.handle_hit_us", "us", "lower"},
	{"server.handle_hit_allocs", "count", "lower"},
	{"server.handle_miss_us", "us", "lower"},
	{"server.self_us", "us", "lower"},
	{"server.encode_ns_per_row", "ns", "lower"},
	{"server.update_us", "us", "lower"},
	{"router.hop_us", "us", "lower"},
	{"router.hop_allocs", "count", "lower"},
	{"router.ring_lookup_ns", "ns", "lower"},
	{"router.upstream_dials_per_kop", "count", "lower"},
	{"client.loopback_rtt_us", "us", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// counterMetrics are the class-(a) metrics that are plain sums of server
// counters over the load phase: for a fixed op sequence sent by one client
// they repeat exactly (the self-check asserts it of every scraped counter).
var counterMetrics = []string{
	"server.queries", "server.streams", "server.coalesced", "server.shed",
	"cache.result_evictions", "cache.carried", "cache.maintained", "cache.invalidated", "database.updates",
	"eval.subformula_evals", "eval.fix_iterations", "eval.tuples_touched", "eval.acyclic_fastpath", "eval.rep_switches",
	"router.proxied", "router.retries", "router.hedges",
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	if raw, ok := strings.CutPrefix(name, "raw."); ok {
		return unitOf(raw)
	}
	return ""
}

// layerValues fills in the per-layer metrics of a traced run: class (a)
// from the counter deltas of the load phase, class (b) as the median of
// each timing's samples (zero where the layer did not run).
func layerValues(res *result, tm timings) {
	c := res.counters
	ok := float64(res.attempted - res.failed)
	for _, name := range counterMetrics {
		res.values[name] = c[name]
	}
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	res.values["cache.result_hit_ratio"] = ratio(c["cache.result_hits"], c["cache.result_misses"])
	res.values["cache.plan_hit_ratio"] = ratio(c["cache.plan_hits"], c["cache.plan_misses"])
	for _, stage := range stageNames {
		if ok > 0 {
			res.values["server.stage_"+stage+"_ms_per_op"] = c["stage_seconds."+stage] * 1000 / ok
		}
	}
	res.values["client.p99_ms"], res.counts["client.p99_ms"] = res.values["p99_ms"], res.counts["p99_ms"]
	res.values["client.write_p50_ms"], res.counts["client.write_p50_ms"] = res.values["write_p50_ms"], res.counts["write_p50_ms"]
	for name, samples := range tm {
		res.values[name], res.counts[name] = median(samples), len(samples)
	}
}
