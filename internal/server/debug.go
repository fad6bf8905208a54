package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// handleTraces serves the flight recorder's retained traces, newest first.
// The list view elides spans down to a per-trace summary; fetch a single
// trace by ID for the full span tree.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeJSON(w, http.StatusNotFound,
			ErrorResponse{Error: "flight recorder disabled: start bvqd with -trace-buffer > 0"})
		return
	}
	views := s.recorder.Traces()
	type summary struct {
		TraceID string  `json:"trace_id"`
		DurMS   float64 `json:"dur_ms"`
		Kept    string  `json:"kept,omitempty"`
		Spans   int     `json:"spans"`
		// Root annotations, flattened for scanning: database, engine, status.
		Attrs []trace.Attr `json:"attrs,omitempty"`
	}
	out := struct {
		Recorded int64     `json:"recorded"`
		Kept     int64     `json:"kept"`
		Traces   []summary `json:"traces"`
	}{Recorded: s.recorder.Recorded(), Kept: s.recorder.Kept(), Traces: make([]summary, len(views))}
	for i, v := range views {
		sm := summary{TraceID: v.TraceID, DurMS: v.DurMS, Kept: v.Kept, Spans: len(v.Spans)}
		if len(v.Spans) > 0 {
			sm.Attrs = v.Spans[0].Attrs
		}
		out.Traces[i] = sm
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceByID serves one retained trace with its full span tree.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeJSON(w, http.StatusNotFound,
			ErrorResponse{Error: "flight recorder disabled: start bvqd with -trace-buffer > 0"})
		return
	}
	id := r.PathValue("id")
	v, ok := s.recorder.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			ErrorResponse{Error: fmt.Sprintf("trace %q not retained (aged out of the ring, or never recorded)", id)})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// recordTrace files a finished trace with the flight recorder and feeds the
// per-stage latency histograms (bvqd_stage_seconds). The root span is
// skipped — its duration is already bvqd_query_latency_seconds — and
// per-fixpoint spans report busy time under the "fixpoint" stage label.
// Stage histograms are sampled at the trace sample rate, which OPERATIONS.md
// documents next to the family.
func (s *Server) recordTrace(t *trace.Trace) {
	t.Durations(func(name string, dur time.Duration) {
		s.metrics.stages.With(name).Observe(dur.Seconds())
	})
	s.recorder.Record(t)
}

// clientRequestID returns a sanitized client-supplied X-Request-Id (so
// upstream tiers can correlate their logs with bvqd's), or "" to fall back
// to the server sequence. Only printable ASCII without quotes survives, and
// at most 64 bytes — request IDs end up in log lines and response headers.
func clientRequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}

// cacheOutcome labels how the request's answer was produced, for slow-query
// logs: "hit" (result cache), "coalesced" (rode another request's
// evaluation), "bypass" (trace/explain/no_cache forced a fresh run),
// "maintained" (resumed from the previous content's entry), "miss" (evaluated
// fresh and eligible for caching).
func (q *query) cacheOutcome() string {
	switch {
	case q.cached:
		return "hit"
	case q.coalesced:
		return "coalesced"
	case q.direct:
		return "bypass"
	case q.maintained:
		return "maintained"
	default:
		return "miss"
	}
}

// topSpans renders the k slowest non-root spans as "name=123us" pairs for
// slow-query log lines; fixpoint spans are suffixed with the fixpoint
// relation they iterate.
func topSpans(v trace.View, k int) string {
	spans := make([]trace.SpanView, 0, len(v.Spans))
	for _, sp := range v.Spans {
		if sp.Parent >= 0 {
			spans = append(spans, sp)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].DurUS > spans[j].DurUS })
	if len(spans) > k {
		spans = spans[:k]
	}
	parts := make([]string, len(spans))
	for i, sp := range spans {
		name := sp.Name
		if sp.Name == trace.SpanFixpoint {
			for _, a := range sp.Attrs {
				if a.Key == "fixpoint" {
					name += ":" + a.Value
					break
				}
			}
		}
		parts[i] = fmt.Sprintf("%s=%.0fus", name, sp.DurUS)
	}
	return strings.Join(parts, ",")
}
