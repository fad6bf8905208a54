package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/trace"
)

// StreamHeader is the first NDJSON line of a streamed /query response. It
// carries everything known before the first tuple; count is present only
// when the full cardinality is known up front (a cached result, or an
// enumerator whose backing representation counts in O(1) — the streaming
// acyclic route does not).
type StreamHeader struct {
	RequestID string `json:"request_id"`
	Database  string `json:"database"`
	Engine    string `json:"engine"`
	Backend   string `json:"backend,omitempty"`
	Width     int    `json:"width"`
	Arity     int    `json:"arity"`
	Count     *int   `json:"count,omitempty"`
	// Limit and Offset echo the request's window.
	Limit        int  `json:"limit,omitempty"`
	Offset       int  `json:"offset,omitempty"`
	PlanCached   bool `json:"plan_cached"`
	ResultCached bool `json:"result_cached"`
}

// StreamTrailer is the last NDJSON line of a streamed /query response. Like
// the JSON response's count, Count is the FULL answer cardinality — known
// up front on counting routes, or by exhaustion when the stream ran to the
// end un-limited; omitted when a LIMIT stopped a non-counting route early.
// A stream cut by the server's own deadline ends with Error set; a stream
// cut by the client disconnecting ends with no trailer at all.
type StreamTrailer struct {
	Trailer   bool       `json:"trailer"`
	Count     *int       `json:"count,omitempty"`
	Truth     *bool      `json:"truth,omitempty"`
	Streamed  int64      `json:"streamed"`
	Skipped   int64      `json:"skipped"`
	Stats     *StatsJSON `json:"stats,omitempty"`
	Error     string     `json:"error,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// renderTuple maps one answer tuple to its wire row (raw domain values, or
// indices when the request asked for them).
func renderTuple(t relation.Tuple, db *database.Database, indices bool) []int {
	row := make([]int, len(t))
	for j, v := range t {
		if indices {
			row[j] = v
		} else {
			row[j] = db.Value(v)
		}
	}
	return row
}

// streamQuery answers one /query request as an NDJSON stream: header line,
// one line per answer tuple flushed as it decodes, trailer line with the
// final statistics. It returns the request's status for the metrics defer.
//
// Streams evaluate through the enumeration API, so a LIMIT-k stream stops
// the extraction — and on the acyclic fast path the evaluation itself —
// after k tuples, holding per-request memory at O(k + stage relations)
// instead of O(|answer|). Errors before the first byte are ordinary JSON
// error responses with the usual status codes; once the header is out the
// status is committed, and failures surface in the trailer (deadline) or as
// a counted disconnect (client gone, no trailer).
//
// Streams bypass single-flight coalescing — each holds its own admission
// slot for its whole lifetime, since on the streaming acyclic route the
// evaluation is interleaved with delivery — but they still read the result
// cache, and an un-windowed stream that runs to exhaustion still stores its
// answer and registers its churn footprint exactly like a JSON request.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, r *http.Request,
	req *QueryRequest, nd *namedDB, snap *dbSnap, pl cache.Plan,
	engine bvq.Engine, engineName string, opts *eval.Options, key string,
	resp *QueryResponse, start time.Time, root *trace.Span) (status int) {

	s.streams.Add(1)
	reqID := resp.RequestID
	fail := func(code int, err error, partial *StatsJSON) int {
		s.fail(w, code, err, partial, reqID)
		return code
	}

	var en eval.Enumerator
	var runStats *eval.Stats  // live stats of a fresh run (nil on cache hits)
	var dispStats *eval.Stats // stats reported in the trailer
	var mstate *eval.MaintState
	var countKnown bool
	var fullCount int

	if !req.NoCache {
		clsp := root.Start(trace.SpanCacheLookup)
		hit, ok := s.results.Get(key)
		clsp.End()
		if ok {
			resp.ResultCached = true
			// The cached Stats are shared with other requests: stream meters
			// (tuples streamed/skipped) must not be written into them, so the
			// set enumerator runs unmetered and the trailer reports the
			// original run's stats, like the JSON path does.
			en = eval.NewSetEnumerator(ctx, hit.Answer, nil)
			dispStats = hit.Stats
			fullCount, countKnown = hit.Answer.Len(), true
		}
	}

	if en == nil {
		// Fresh evaluation: admission first, like the JSON path's run().
		asp := root.Start(trace.SpanAdmission)
		if aerr := s.limiter.acquire(ctx); aerr != nil {
			asp.End()
			return fail(s.evalErrorCode(w, aerr), aerr, nil)
		}
		asp.End()
		defer s.limiter.release()
		s.evalsInFlight.Add(1)
		defer s.evalsInFlight.Add(-1)

		// The eval span covers enumerator construction only: on streaming
		// routes (notably the acyclic pipeline) evaluation interleaves with
		// delivery, so the drain span below carries that cost.
		esp := root.Start(trace.SpanEval)
		opts.Tracer = chainTracers(opts.Tracer, trace.Stages(esp))
		var eerr error
		func() {
			defer s.containPanic(ctx, "evaluator panic", reqID, req.Query, &eerr)
			if s.testHookBeforeEval != nil {
				s.testHookBeforeEval()
			}
			if engine == bvq.EngineCompiled && pl.Prepared != nil {
				en, runStats, mstate, eerr = eval.EvalPlanEnumCapture(ctx, pl.Prepared, snap.db, opts)
			} else {
				en, runStats, eerr = bvq.EvalEnumContext(ctx, pl.Query, snap.db, engine, opts)
			}
		}()
		esp.End()
		if eerr != nil {
			return fail(s.evalErrorCode(w, eerr), eerr, statsJSON(runStats))
		}
		dispStats = runStats
		fullCount, countKnown = en.Count()
	}
	defer en.Close()
	// Fold a fresh run's work into the aggregate gauges once the stream is
	// over (Close first: the acyclic route folds its own counters there).
	defer func() {
		if runStats != nil {
			en.Close()
			s.foldEvalStats(runStats)
		}
	}()

	// First byte: from here on the 200 is committed.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	status = http.StatusOK
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	hdr := StreamHeader{
		RequestID:    reqID,
		Database:     resp.Database,
		Engine:       engineName,
		Backend:      resp.Backend,
		Width:        resp.Width,
		Arity:        resp.Arity,
		Limit:        req.Limit,
		Offset:       req.Offset,
		PlanCached:   resp.PlanCached,
		ResultCached: resp.ResultCached,
	}
	if countKnown {
		c := fullCount
		hdr.Count = &c
	}
	if err := enc.Encode(hdr); err != nil {
		s.streamDisconnects.Add(1)
		return status
	}
	flush()

	// An un-windowed, uncached stream that runs to the end has decoded the
	// whole answer anyway — collect it so the result cache and the churn
	// index see streamed evaluations too. Windowed streams skip this: their
	// point is not to pay O(|answer|).
	var collect *relation.Set
	if runStats != nil && !req.NoCache && req.Limit == 0 && req.Offset == 0 {
		collect = relation.NewSet(resp.Arity)
	}

	// The drain span covers seek, decode and delivery — on streaming routes
	// this is where evaluation work actually happens. Ended by the deferred
	// trace Close when a disconnect returns early.
	//
	// The whole drain runs panic-contained: on streaming routes the engine
	// executes inside Next/Skip, so a backend failure here surfaces as a
	// panic AFTER the first byte — past the point where recoverPanics could
	// still write a JSON error. Without the recover the response would just
	// stop, indistinguishable from truncation; the contract (and what the
	// router's truncation detection relies on) is that every server-side
	// death mid-stream ends with an error trailer.
	dsp := root.Start(trace.SpanStreamDrain)
	defer dsp.End()
	skipped := int64(0)
	streamed := int64(0)
	limited := false
	disconnected := false
	var drainPanic error
	func() {
		defer s.containPanic(ctx, "stream drain panic", reqID, req.Query, &drainPanic)
		if req.Offset > 0 {
			skipped = int64(en.Skip(req.Offset))
		}
		for {
			if req.Limit > 0 && streamed >= int64(req.Limit) {
				limited = true
				return
			}
			t, ok := en.Next()
			if !ok {
				return
			}
			if collect != nil {
				collect.Add(t)
			}
			if s.testHookOnStreamRow != nil {
				s.testHookOnStreamRow(int(streamed))
			}
			if err := enc.Encode(renderTuple(t, snap.db, req.Indices)); err != nil {
				disconnected = true
				return
			}
			streamed++
			flush()
		}
	}()
	if disconnected {
		s.streamDisconnects.Add(1)
		return status
	}

	err := en.Err()
	if err == nil {
		err = drainPanic
	}
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away: nobody is reading, so no trailer — just
			// count the cut and release the slot promptly (the deferred
			// release runs on return).
			s.streamDisconnects.Add(1)
			return status
		}
		// The server's own deadline — or a contained drain panic — cut the
		// stream: the status line is long gone, so report it in the trailer.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.timeouts.Add(1)
		}
		en.Close() // fold acyclic-route stats before reading them
		_ = enc.Encode(StreamTrailer{
			Trailer:   true,
			Streamed:  streamed,
			Skipped:   skipped,
			Stats:     statsJSON(dispStats),
			Error:     err.Error(),
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		})
		flush()
		return status
	}

	exhausted := !limited
	if exhausted && !countKnown {
		// Draining a non-counting route to the end IS a count.
		fullCount, countKnown = int(skipped+streamed), true
	}
	if collect != nil && exhausted {
		s.storeResult(nd, snap, key, cache.Result{Answer: collect, Stats: runStats},
			trackedResult(key, engine, engineName, req.Query, opts, pl, mstate))
	}

	en.Close() // fold acyclic-route stats before the trailer reads them
	trailer := StreamTrailer{
		Trailer:   true,
		Streamed:  streamed,
		Skipped:   skipped,
		Stats:     statsJSON(dispStats),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	if countKnown {
		c := fullCount
		trailer.Count = &c
		if resp.Arity == 0 {
			truth := fullCount > 0
			trailer.Truth = &truth
		}
	}
	if err := enc.Encode(trailer); err != nil {
		s.streamDisconnects.Add(1)
		return status
	}
	flush()
	return status
}
