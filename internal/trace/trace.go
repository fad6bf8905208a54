// Package trace is the query-lifecycle observability layer of bvqd: a
// hierarchical span model describing where one request's time went —
// admission wait, cache lookup, compile, evaluation, per-binder fixpoint
// work, answer extraction or stream drain — plus the flight recorder
// (recorder.go) that keeps the last N finished traces in memory for
// GET /debug/traces.
//
// The paper's evaluation cost is structured (per-binder fixpoint stages
// over a plan DAG), and the constant-delay line of work splits cost into
// preprocessing vs. per-tuple delay; a trace exposes exactly those seams
// per request instead of one flat latency number.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Every method is nil-receiver safe: a nil
//     *Trace starts nil *Spans, and a nil *Span drops every call without
//     allocating, so untraced requests pay one pointer compare per
//     instrumentation point and nothing else.
//
//   - Safe under concurrency. All span mutation is serialized on the owning
//     Trace's mutex.
//
//   - Closed means closed. After Trace.Close, span starts, ends, added
//     children and annotations are dropped — a late goroutine cannot mutate
//     a trace the flight recorder has already published.
//
//   - A leaf. The package imports nothing else of this repository, so any
//     tier (the router included) can record spans without linking the
//     evaluator; work measured elsewhere enters as a finished child span
//     (Span.AddChild).
//
// Trace IDs follow the W3C trace-context format (32 lowercase hex chars)
// so a future bvqrouter can stitch fleet-wide traces: ParseTraceparent and
// FormatTraceparent read and write the `traceparent` header, and NewTraceID
// generates fresh IDs.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span names used by the bvqd request lifecycle. The stage-latency
// histogram families (bvqd_stage_seconds{stage}) use these as label values,
// and OPERATIONS.md documents them under /debug/traces.
const (
	SpanRequest     = "request"
	SpanAdmission   = "admission_wait"
	SpanCacheLookup = "cache_lookup"
	SpanCompile     = "compile"
	SpanEval        = "eval"
	SpanFixpoint    = "fixpoint"
	SpanExtract     = "extract"
	SpanStreamDrain = "stream_drain"
)

// Trace is one request's span tree. Construct with New; a nil *Trace is the
// disabled form — every derived *Span is nil and every call is a no-op.
type Trace struct {
	mu     sync.Mutex
	id     string
	start  time.Time
	spans  []*Span // spans[0] is the root; append order = start order
	closed bool
	end    time.Time
	keep   string // non-empty: why the flight recorder must retain this trace
}

// Span is one timed section of a trace. Spans are created by Trace.Root and
// Span.Start and mutated only through methods, all of which lock the owning
// trace. A nil *Span drops every call.
type Span struct {
	t        *Trace
	id       int
	parent   int // -1 for the root
	name     string
	start    time.Time
	ended    bool
	dur      time.Duration
	attrs    []Attr
	counters Counters
}

// Counters are the work totals a span added by AddChild may carry; bvqd's
// fixpoint spans report their stage count, final stage size and summed |Δ|.
type Counters struct {
	Stages      int64 `json:"stages,omitempty"`
	Tuples      int   `json:"tuples,omitempty"`
	DeltaTuples int64 `json:"delta_tuples,omitempty"`
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// New returns a live trace with the given W3C trace ID and a started root
// span named SpanRequest.
func New(id string, start time.Time) *Trace {
	t := &Trace{id: id, start: start}
	t.spans = []*Span{{t: t, id: 0, parent: -1, name: SpanRequest, start: start}}
	return t
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the request span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.spans[0]
}

// Keep marks the trace as must-retain with a reason (slow, error, shed);
// the flight recorder moves kept traces to the always-keep buffer instead
// of the ring. The first reason wins.
func (t *Trace) Keep(reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.keep == "" {
		t.keep = reason
	}
	t.mu.Unlock()
}

// Close finishes the trace: the root span and every still-open child end at
// now, and all further mutation — span starts, ends, annotations, added
// children — is dropped. Close is idempotent.
func (t *Trace) Close(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	t.end = now
	for _, s := range t.spans {
		if !s.ended {
			s.ended = true
			s.dur = now.Sub(s.start)
		}
	}
}

// Start begins a child span under s. Returns nil (a no-op span) when s is
// nil or the trace is closed.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	kid := &Span{t: t, id: len(t.spans), parent: s.id, name: name, start: time.Now()}
	t.spans = append(t.spans, kid)
	return kid
}

// End finishes the span. Ending twice, or after the trace closed, is a
// no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
}

// Annotate attaches a key/value pair to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AddChild records an already finished child span under s: work measured
// outside the span model — a fixpoint's stages, folded by the evaluator —
// with its start, its duration (busy time, where workers overlapped) and
// its counters.
func (s *Span) AddChild(name string, start time.Time, dur time.Duration, attrs []Attr, c Counters) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.spans = append(t.spans, &Span{t: t, id: len(t.spans), parent: s.id, name: name,
		start: start, ended: true, dur: dur, attrs: attrs, counters: c})
}

// SpanView is the immutable JSON form of one span, snapshotted by
// Trace.View. StartUS is the offset from the trace start in microseconds.
type SpanView struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Attrs   []Attr  `json:"attrs,omitempty"`
	Counters
}

// View is the immutable JSON form of a whole trace.
type View struct {
	TraceID string     `json:"trace_id"`
	Start   time.Time  `json:"start"`
	DurMS   float64    `json:"dur_ms"`
	Kept    string     `json:"kept,omitempty"`
	Spans   []SpanView `json:"spans"`
}

// View snapshots the trace. Open spans report their running duration;
// callers normally View only closed traces (the flight recorder does).
func (t *Trace) View() View {
	if t == nil {
		return View{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := View{
		TraceID: t.id,
		Start:   t.start,
		Kept:    t.keep,
		Spans:   make([]SpanView, len(t.spans)),
	}
	end := t.end
	if !t.closed {
		end = time.Now()
	}
	v.DurMS = float64(end.Sub(t.start).Microseconds()) / 1000
	for i, s := range t.spans {
		dur := s.dur
		if !s.ended {
			dur = end.Sub(s.start)
		}
		v.Spans[i] = SpanView{
			ID:       s.id,
			Parent:   s.parent,
			Name:     s.name,
			StartUS:  float64(s.start.Sub(t.start).Nanoseconds()) / 1000,
			DurUS:    float64(dur.Nanoseconds()) / 1000,
			Attrs:    append([]Attr(nil), s.attrs...),
			Counters: s.counters,
		}
	}
	return v
}

// NewTraceID returns a fresh W3C trace ID: 16 random bytes, lowercase hex.
func NewTraceID() string { return randomHex(16) }

// NewSpanID returns a fresh W3C parent/span ID: 8 random bytes, hex.
func NewSpanID() string { return randomHex(8) }

// randomHex returns n ≤ 16 random bytes as hex.
func randomHex(n int) string {
	var buf [16]byte
	b := buf[:n]
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// time-derived ID rather than panicking in a serving path.
		now := time.Now().UnixNano()
		for i := 0; i < 8; i++ {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b)
}

// ParseTraceparent extracts the trace ID and parent span ID from a W3C
// `traceparent` header value (version 00: "00-<32 hex>-<16 hex>-<2 hex>").
// ok is false for anything malformed, including the all-zero trace ID the
// spec forbids.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	if h[0] != '0' || h[1] != '0' {
		return "", "", false // only version 00 is understood
	}
	traceID, parentID = h[3:35], h[36:52]
	zeroTrace := true
	for _, part := range []string{traceID, parentID, h[53:]} {
		for i := 0; i < len(part); i++ {
			c := part[i]
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				return "", "", false
			}
		}
	}
	for i := 0; i < len(traceID); i++ {
		if traceID[i] != '0' {
			zeroTrace = false
			break
		}
	}
	if zeroTrace {
		return "", "", false
	}
	return traceID, parentID, true
}

// FormatTraceparent renders a version-00 sampled traceparent header value.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}
