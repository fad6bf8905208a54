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
// so a future bvqrouter can stitch fleet-wide traces: ParseTraceparent reads
// the `traceparent` header, and NewTraceparent writes one, under a fresh
// trace ID or the one read.
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
	// The first spans, their pointers and the root's annotations live in the
	// trace itself: a request's usual trace is one allocation.
	first     [6]Span
	firstPtrs [6]*Span
	rootAttrs [4]Attr
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
	t.spans = t.firstPtrs[:0]
	t.add(Span{parent: -1, name: SpanRequest, start: start, attrs: t.rootAttrs[:0]})
	return t
}

// add appends s as the trace's next span, in the trace's own storage while
// it lasts; the caller holds t.mu (or owns t).
func (t *Trace) add(s Span) *Span {
	s.t, s.id = t, len(t.spans)
	var sp *Span
	if s.id < len(t.first) {
		sp = &t.first[s.id]
	} else {
		sp = new(Span)
	}
	*sp = s
	t.spans = append(t.spans, sp)
	return sp
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
	return t.add(Span{parent: s.id, name: name, start: time.Now()})
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
	t.add(Span{parent: s.id, name: name, start: start, ended: true, dur: dur, attrs: attrs, counters: c})
}

// Durations calls f with the name and duration of every span under the root,
// in start order: what a closed trace feeds per-stage histograms with,
// without snapshotting it.
func (t *Trace) Durations(f func(name string, dur time.Duration)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if !t.closed {
		end = time.Now()
	}
	for _, s := range t.spans[1:] {
		dur := s.dur
		if !s.ended {
			dur = end.Sub(s.start)
		}
		f(s.name, dur)
	}
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

// NewTraceparent returns a version-00 sampled traceparent header value under
// a fresh span ID, and the trace ID it carries: traceID (32 lowercase hex
// chars, as ParseTraceparent returns it), or a fresh one when traceID is "".
// It reads the random source once and builds one string, the ID a substring
// of it.
func NewTraceparent(traceID string) (header, id string) {
	var rnd [24]byte // the span ID's 8 bytes, then a fresh trace ID's 16
	if _, err := rand.Read(rnd[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// time-derived ID rather than panicking in a serving path.
		now := time.Now().UnixNano()
		for i := range rnd {
			rnd[i] = byte(now>>(8*(i%8))) ^ byte(i)
		}
	}
	var b [55]byte
	copy(b[:], "00-")
	if traceID == "" {
		hex.Encode(b[3:35], rnd[8:])
	} else {
		copy(b[3:35], traceID)
	}
	b[35] = '-'
	hex.Encode(b[36:52], rnd[:8])
	copy(b[52:], "-01")
	header = string(b[:])
	return header, header[3:35]
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
