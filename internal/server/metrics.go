package server

import (
	"time"

	"repro/internal/metrics"
)

// serverMetrics is the server's one counter store: every plain count is a
// registry instrument, bumped where the event happens and read by both
// /metrics and /stats (Server.Stats). Func-backed collectors remain only for
// state another component owns — cache counters, limiter depth, the flight
// recorder, uptime.
type serverMetrics struct {
	registry *metrics.Registry
	latency  *metrics.HistogramVec // bvqd_query_latency_seconds{engine}
	statuses *metrics.CounterVec   // bvqd_responses_total{code}
	backends *metrics.CounterVec   // bvqd_queries_by_backend_total{backend}
	stages   *metrics.HistogramVec // bvqd_stage_seconds{stage}

	queries, errors, timeouts, shed, panics, slow *metrics.Counter
	coalesced, streams, streamDisconnects         *metrics.Counter
	requestsInFlight, evalsInFlight               *metrics.Gauge

	// Aggregate engine work over all fresh and maintenance runs, partial
	// ones included (foldEvalStats).
	subformulaEvals, fixIterations, tuplesTouched, repSwitches, acyclicFast *metrics.Counter

	updates, maintained *metrics.Counter
	invalidations       *metrics.CounterVec // bvqd_cache_invalidations_total{reason}
}

func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		registry: r,
		latency: r.NewHistogramVec("bvqd_query_latency_seconds",
			"End-to-end /query handling latency by evaluation engine.",
			"engine", metrics.DefBuckets),
		statuses: r.NewCounterVec("bvqd_responses_total",
			"Responses to /query and /db/{name}/update by HTTP status code.", "code"),
		backends: r.NewCounterVec("bvqd_queries_by_backend_total",
			"Requests by requested relation backend (auto, dense, sparse).", "backend"),
		stages: r.NewHistogramVec("bvqd_stage_seconds",
			"Per-stage request latency (admission_wait, cache_lookup, compile, eval, fixpoint, extract, stream_drain), sampled at the flight-recorder rate.",
			"stage", metrics.DefBuckets),

		queries: r.NewCounter("bvqd_queries_total",
			"Requests received on /query."),
		errors: r.NewCounter("bvqd_errors_total",
			"Requests answered with a 4xx or 5xx status."),
		timeouts: r.NewCounter("bvqd_timeouts_total",
			"Requests answered 504 after their evaluation deadline fired."),
		shed: r.NewCounter("bvqd_shed_total",
			"Requests shed with 429 by the admission controller."),
		panics: r.NewCounter("bvqd_panics_recovered_total",
			"Evaluator panics recovered and converted to 500 responses."),
		slow: r.NewCounter("bvqd_slow_queries_total",
			"Requests slower than the slow-query threshold."),
		coalesced: r.NewCounter("bvqd_coalesced_total",
			"Requests served by another request's in-flight evaluation."),
		streams: r.NewCounter("bvqd_streams_total",
			"Requests answered as NDJSON streams."),
		streamDisconnects: r.NewCounter("bvqd_stream_disconnects_total",
			"NDJSON streams cut mid-answer by a client disconnect."),
		requestsInFlight: r.NewGauge("bvqd_requests_in_flight",
			"/query requests currently being handled."),
		evalsInFlight: r.NewGauge("bvqd_evals_in_flight",
			"Evaluations currently running (after dedup and admission)."),

		subformulaEvals: r.NewCounter("bvqd_eval_subformula_evals_total",
			"Subformula evaluations across all runs, including partial ones."),
		fixIterations: r.NewCounter("bvqd_eval_fix_iterations_total",
			"Fixpoint stages across all runs, including partial ones."),
		tuplesTouched: r.NewCounter("bvqd_eval_tuples_touched_total",
			"Tuples written by sparse-backend operations across all runs."),
		repSwitches: r.NewCounter("bvqd_eval_rep_switches_total",
			"Changes of representation inside auto-backend runs: stage loops handed to the other backend at a stage boundary, sparse attempts continued dense after a budget overrun."),
		acyclicFast: r.NewCounter("bvqd_eval_acyclic_fastpath_total",
			"Evaluations whose plan is lowered from a conjunctive region the compiler scoped narrower than written."),

		updates: r.NewCounter("bvqd_updates_total",
			"Effective database updates applied via /db/{name}/update."),
		maintained: r.NewCounter("bvqd_maintained_results_total",
			"Result-cache misses answered by delta-restart maintenance from the entry of the content before the update that last touched the query's footprint."),
		invalidations: r.NewCounterVec("bvqd_cache_invalidations_total",
			"Result-cache misses evaluated fresh although the entry of the content before the update that last touched the query's footprint was cached, by reason.", "reason"),
	}

	// Both reasons are on /metrics from the start, at zero until a miss
	// counts one.
	for _, reason := range []string{"no_plan", "delta_polarity"} {
		m.invalidations.With(reason)
	}

	r.NewGaugeFunc("bvqd_queue_depth",
		"Requests waiting for an evaluation slot.", s.limiter.queueDepth)
	r.NewGaugeFunc("bvqd_eval_slots_in_use",
		"Admission-controller evaluation slots currently held.", s.limiter.inUse)

	r.NewCounterFunc("bvqd_plan_cache_hits_total",
		"Plan cache lookups served without parsing.",
		func() int64 { h, _, _ := s.plans.Counters(); return h })
	r.NewCounterFunc("bvqd_plan_cache_misses_total",
		"Plan cache lookups that had to parse and compile.",
		func() int64 { _, m, _ := s.plans.Counters(); return m })
	r.NewCounterFunc("bvqd_plan_cache_evictions_total",
		"Plans evicted from the LRU plan cache.",
		func() int64 { _, _, e := s.plans.Counters(); return e })
	r.NewGaugeFunc("bvqd_plan_cache_size",
		"Entries currently in the plan cache.",
		func() int64 { return int64(s.plans.Len()) })
	r.NewCounterFunc("bvqd_result_cache_hits_total",
		"Result cache lookups served without evaluating.",
		func() int64 { h, _, _ := s.results.Counters(); return h })
	r.NewCounterFunc("bvqd_result_cache_misses_total",
		"Result cache lookups that fell through to evaluation.",
		func() int64 { _, m, _ := s.results.Counters(); return m })
	r.NewCounterFunc("bvqd_result_cache_evictions_total",
		"Results evicted from the LRU result cache.",
		func() int64 { _, _, e := s.results.Counters(); return e })
	r.NewGaugeFunc("bvqd_result_cache_size",
		"Entries currently in the result cache.",
		func() int64 { return int64(s.results.Len()) })

	r.NewCounterFunc("bvqd_node_cache_hits_total", "Closed sub-plan values taken from the node cache instead of computed.", func() int64 { return s.nodes.Stats().Hits })
	r.NewCounterFunc("bvqd_node_cache_misses_total", "Node cache lookups that fell through to computing the node.", func() int64 { return s.nodes.Stats().Misses })
	r.NewCounterFunc("bvqd_node_cache_admitted_total", "Values the node cache kept: offered a second time and small enough.", func() int64 { return s.nodes.Stats().Admitted })
	r.NewCounterFunc("bvqd_node_cache_evictions_total", "Node cache entries displaced by the byte budget.", func() int64 { return s.nodes.Stats().Evictions })
	r.NewGaugeFunc("bvqd_node_cache_entries", "Values currently in the node cache.", func() int64 { return s.nodes.Stats().Entries })
	r.NewGaugeFunc("bvqd_node_cache_bytes", "Bytes the node cache currently charges against its budget.", func() int64 { return s.nodes.Stats().Bytes })

	r.NewCounterFunc("bvqd_traces_recorded_total",
		"Finished request traces filed with the flight recorder.",
		func() int64 { return s.recorder.Recorded() })
	r.NewCounterFunc("bvqd_traces_kept_total",
		"Traces retained in the always-keep buffer (slow, error, shed).",
		func() int64 { return s.recorder.Kept() })
	r.NewGaugeFunc("bvqd_trace_ring_size",
		"Traces currently retained in the flight-recorder ring.",
		func() int64 { ring, _ := s.recorder.Len(); return int64(ring) })
	r.NewGaugeFunc("bvqd_trace_keep_size",
		"Traces currently retained in the always-keep buffer.",
		func() int64 { _, keep := s.recorder.Len(); return int64(keep) })

	r.NewGaugeFunc("bvqd_uptime_seconds",
		"Seconds since the server started.",
		func() int64 { return int64(time.Since(s.start).Seconds()) })
	return m
}

// observe records one finished /query request: latency under the resolved
// engine name and the response status. A request rejected before its engine
// resolved — a bad body, an unknown database or engine name — is labelled
// "unknown": the client's string is no label value, or every misspelling
// would add a histogram child for the life of the process.
func (m *serverMetrics) observe(engine string, status int, elapsed time.Duration) {
	if engine == "" {
		engine = "unknown"
	}
	m.latency.With(engine).Observe(elapsed.Seconds())
	m.statuses.With(statusLabel(status)).Inc()
}

// statusLabel stringifies the handful of status codes the handler emits
// without allocating through strconv at steady state.
func statusLabel(code int) string {
	switch code {
	case 200:
		return "200"
	case 400:
		return "400"
	case 404:
		return "404"
	case 409:
		return "409"
	case 413:
		return "413"
	case 422:
		return "422"
	case 429:
		return "429"
	case 500:
		return "500"
	case 504:
		return "504"
	}
	return "other"
}
