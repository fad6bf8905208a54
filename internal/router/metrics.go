package router

import (
	"repro/internal/metrics"
)

// routerMetrics is the bvqrouter_* instrument set. Families are prefixed
// bvqrouter_ (not bvqd_) so the fleet aggregate on GET /metrics can carry
// the replicas' bvqd_* families alongside without collision.
type routerMetrics struct {
	registry *metrics.Registry

	requests       *metrics.CounterVec // by route: query | stream
	latency        *metrics.HistogramVec
	proxied        *metrics.CounterVec // by replica URL
	updates        *metrics.Counter
	retries        *metrics.Counter
	shedRelays     *metrics.Counter
	streamRepairs  *metrics.Counter
	unrouted       *metrics.Counter
	evictions      *metrics.Counter
	fanoutFailures *metrics.Counter
	divergence     *metrics.Counter
	scrapeFailures *metrics.Counter
}

func newRouterMetrics(rt *Router) *routerMetrics {
	r := metrics.NewRegistry()
	m := &routerMetrics{
		registry: r,
		requests: r.NewCounterVec("bvqrouter_requests_total",
			"Routed /query requests by route (query: JSON, stream: NDJSON).", "route"),
		latency: r.NewHistogramVec("bvqrouter_request_seconds",
			"End-to-end routed request latency by route, including retries.", "route", nil),
		proxied: r.NewCounterVec("bvqrouter_proxied_total",
			"Upstream requests issued, by replica.", "replica"),
		updates: r.NewCounter("bvqrouter_updates_total",
			"Update fan-outs attempted."),
		retries: r.NewCounter("bvqrouter_retries_total",
			"Upstream attempts beyond each request's first-choice replica."),
		shedRelays: r.NewCounter("bvqrouter_shed_relayed_total",
			"Requests answered 429 because every candidate replica shed."),
		streamRepairs: r.NewCounter("bvqrouter_stream_repairs_total",
			"Streams whose upstream died mid-answer and got a router-appended error trailer."),
		unrouted: r.NewCounter("bvqrouter_unrouted_total",
			"Requests no replica could serve (502/503 responses)."),
		evictions: r.NewCounter("bvqrouter_member_evictions_total",
			"Ring evictions from health-probe failures or forwarding errors."),
		fanoutFailures: r.NewCounter("bvqrouter_update_fanout_failures_total",
			"Update fan-outs where at least one healthy replica failed."),
		divergence: r.NewCounter("bvqrouter_update_divergence_total",
			"Update fan-outs where healthy replicas disagreed on the resulting fingerprint."),
		scrapeFailures: r.NewCounter("bvqrouter_scrape_failures_total",
			"Replica /metrics scrapes that failed during fleet aggregation."),
	}
	r.NewGaugeFunc("bvqrouter_members_healthy",
		"Replicas currently in the ring.", rt.healthyCount)
	r.NewGaugeFunc("bvqrouter_members_configured",
		"Replicas configured.", func() int64 { return int64(len(rt.members)) })
	return m
}

// statsSnapshot is the router section of GET /stats.
func (rt *Router) statsSnapshot() map[string]any {
	return map[string]any{
		"members_configured": len(rt.members),
		"members_healthy":    rt.healthyCount(),
		"updates":            rt.metrics.updates.Value(),
		"retries":            rt.metrics.retries.Value(),
		"shed_relayed":       rt.metrics.shedRelays.Value(),
		"stream_repairs":     rt.metrics.streamRepairs.Value(),
		"unrouted":           rt.metrics.unrouted.Value(),
		"evictions":          rt.metrics.evictions.Value(),
		"fanout_failures":    rt.metrics.fanoutFailures.Value(),
		"divergence":         rt.metrics.divergence.Value(),
	}
}
