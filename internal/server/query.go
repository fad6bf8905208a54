package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/trace"
)

// engineCompiled is the one engine bvqd serves: the plan executor. The other
// engines are in-process exhibits and oracles (bvq -engine, bvq.Eval).
const engineCompiled = "compiled"

// query is one /query request on its way through the pipeline. resolve fills
// everything down to direct; the steps after it only read those fields and
// record how the request was served in the last group, which finish reports.
type query struct {
	req   QueryRequest
	reqID string
	start time.Time
	// lt is the lifecycle trace, built for 1 in TraceSample requests when the
	// flight recorder is on. Untraced requests never allocate a span — lt and
	// root are nil and every method on them is a no-op.
	lt   *trace.Trace
	root *trace.Span

	ctx    context.Context // the request's context under its deadline
	cancel context.CancelFunc
	nd     *namedDB
	// snap is pinned by one atomic load: concurrent updates swap the pointer
	// but never touch the snapshot value, so evaluation, cache key and answer
	// rendering are consistent.
	snap        *database.Database
	engineName  string // "" until the engine resolves
	backendName string
	wireBackend string     // backendName when the request named a backend: the responses' echo
	p           *plan.Plan // the cached plan, shared by every request for the same text
	planCached  bool
	opts        eval.Options // Observe: the fresh run's observer, when anything reads it
	key         string
	// direct: the request runs its own evaluation — no cache read, no
	// coalescing. An explained answer must come with this run's profile, not
	// someone else's (or none).
	direct bool

	status     int
	cached     bool  // served from the result cache
	coalesced  bool  // served by another request's evaluation
	maintained bool  // the run resumed from the previous content's entry (Server.resume)
	shared     int64 // closed sub-plan values the fresh run took from the node cache
}

// evalOutcome is what lookup or one evaluation produces, shared between
// coalesced requests — the partial statistics of a cancelled run included.
// answer is the whole answer in the one form both writers window and the
// cache keeps, whoever produced it: the executor's head as it stands or its
// compacted form once kept. text is a hit's stored
// row text (storedRows); a miss has none.
type evalOutcome struct {
	answer relation.View
	text   *cache.Text
	stats  *eval.Stats
	mstate *eval.MaintState // compiled runs of a maintainable plan: what delta-restart maintenance resumes from
	err    error
}

// handleQuery is the /query pipeline: resolve the request, look the answer
// up, evaluate it if that missed, write it, and (deferred) finish with the
// metrics, trace and slow-log epilogue. JSON and NDJSON requests differ in the
// last step alone: how the writer renders the cursor it opens on the answer.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := s.begin(w, r)
	defer s.finish(r, q)
	if code, err := s.resolve(w, r, q); err != nil {
		q.status = code
		s.fail(w, code, err, nil, q.reqID)
		return
	}
	defer q.cancel()
	if q.req.Stream {
		s.metrics.streams.Inc()
	}

	out := s.lookup(q)
	if !q.cached {
		out = s.evaluateShared(q)
	}
	if out.err != nil {
		s.rejectEval(w, q, out)
		return
	}
	if q.req.Stream {
		s.writeStream(w, r, q, out)
	} else {
		s.writeAnswer(w, q, out)
	}
}

// begin counts the request, settles its ID and starts its lifecycle trace,
// continuing the client's W3C trace when it sent a traceparent header (so a
// front tier can stitch fleet-wide traces).
func (s *Server) begin(w http.ResponseWriter, r *http.Request) *query {
	q := &query{start: time.Now(), status: http.StatusOK, cancel: func() {}}
	s.metrics.queries.Inc()
	s.metrics.requestsInFlight.Add(1)
	seq := s.reqSeq.Add(1)
	q.reqID = clientRequestID(r)
	if q.reqID == "" {
		hex := strconv.AppendInt(make([]byte, 0, 16), seq, 16) // "%08x"
		q.reqID = "00000000"[:max(8-len(hex), 0)] + string(hex)
	}
	w.Header().Set("X-Request-Id", q.reqID)
	if s.recorder != nil && seq%s.sample == 0 {
		traceID, _, ok := trace.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			traceID = trace.NewTraceID()
		}
		q.lt = trace.New(traceID, q.start)
		q.root = q.lt.Root()
		q.root.Annotate("request_id", q.reqID)
		w.Header().Set("traceparent", trace.FormatTraceparent(traceID, trace.NewSpanID()))
	}
	return q
}

// resolve turns the request body into everything evaluation needs: decoded
// and validated fields, the pinned snapshot, the backend, the compiled plan
// (under the compile span), the deadline, the options and the cache key. Its
// error is the 400, 404 or 422 to answer: a text the compiler rejects is
// answered here, before any cache read, coalescing or admission.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, q *query) (int, error) {
	req := &q.req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return bodyErrorStatus(err), fmt.Errorf("decoding request: %w", err)
	}
	// Validate numeric wire fields up front: a negative value is always a
	// client bug, and letting it through would select unintended semantics.
	switch {
	case req.TimeoutMS < 0:
		return http.StatusBadRequest, fmt.Errorf("invalid timeout_ms %d: must be ≥ 0 (0 means the server default)", req.TimeoutMS)
	case req.Limit < 0:
		return http.StatusBadRequest, fmt.Errorf("invalid limit %d: must be ≥ 0 (0 means all tuples)", req.Limit)
	case req.Offset < 0:
		return http.StatusBadRequest, fmt.Errorf("invalid offset %d: must be ≥ 0", req.Offset)
	case req.Stream && req.Explain:
		return http.StatusBadRequest, fmt.Errorf("explain is not supported with stream: the plan profile belongs to the JSON response body")
	}
	nd, ok := s.dbs[req.Database]
	if !ok {
		return http.StatusNotFound, fmt.Errorf("unknown database %q", req.Database)
	}
	q.nd, q.snap = nd, nd.snap.Load()
	if req.Engine != "" && req.Engine != engineCompiled {
		return http.StatusBadRequest, fmt.Errorf("unknown engine %q: bvqd serves %q only (run the others in-process with bvq -engine)", req.Engine, engineCompiled)
	}
	q.engineName = engineCompiled
	backend, err := eval.BackendByName(req.Backend)
	if err != nil {
		return http.StatusBadRequest, err
	}
	q.backendName = backend.String()
	if req.Backend != "" {
		q.wireBackend = q.backendName
	}
	s.metrics.backends.With(q.backendName).Inc()
	csp := q.root.Start(trace.SpanCompile)
	q.p, q.planCached, err = s.plans.Load(req.Query)
	csp.End()
	if err != nil {
		var nc *cache.NotCompiled
		if errors.As(err, &nc) {
			return http.StatusUnprocessableEntity, err
		}
		return http.StatusBadRequest, err
	}

	q.ctx = r.Context()
	timeout := s.defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.maxTimeout > 0 && (timeout == 0 || timeout > s.maxTimeout) {
		timeout = s.maxTimeout
	}
	if timeout > 0 {
		q.ctx, q.cancel = context.WithTimeout(q.ctx, timeout)
	}
	q.opts = eval.Options{Backend: backend}
	// The observer, installed by evaluate, never changes answers, so it is
	// excluded from the result key: observed and unobserved runs share cache
	// entries. The key names the content of the relations the query reads, so
	// a snapshot that differs elsewhere mints the same key.
	q.key = cache.ResultKey(q.snap.ContentID(q.p.Maint.Rels), q.engineName, &q.opts, req.Query)
	if q.direct = req.NoCache || req.Explain; !q.direct {
		q.opts.Nodes = s.nodes // a direct request reports its own run, every node computed
	}
	return 0, nil
}

// lookup is the one result-cache read; q.cached reports a hit. Streams read
// the cache like JSON requests do; only a direct request skips it.
func (s *Server) lookup(q *query) evalOutcome {
	if q.direct {
		return evalOutcome{}
	}
	sp := q.root.Start(trace.SpanCacheLookup)
	hit, ok := s.results.Get(q.key)
	sp.End()
	q.cached = ok
	// The cached Stats are shared with other requests: the wire reports the
	// original run's.
	return evalOutcome{answer: hit.Answer, stats: hit.Stats, text: hit.Text}
}

// maxTextRows is the largest answer whose rendered rows its entry keeps. A
// larger one renders through its cursor on every hit, so neither the text's
// memory nor the first hit's render, which no deadline cuts short, grows past
// this bound.
const maxTextRows = 1 << 16

// storedRows returns the whole answer as the entry's row text, rendering it
// on the first hit that asks: the rows appendRows writes with no window, in
// domain values. It returns nil, and the request renders through the cursor,
// for a miss, a window, a Boolean query, an answer over maxTextRows,
// and a hit from a snapshot of another domain: entries are shared by content
// in index space, so the stored values are right only over the domain they
// were rendered from.
func (q *query) storedRows(out evalOutcome) []byte {
	if out.text == nil || q.req.Offset > 0 || q.req.Limit > 0 || q.p.Query.Arity() == 0 {
		return nil
	}
	domain := q.snap.Domain()
	rows, over := out.text.Load(func() ([]byte, []int) {
		en := eval.NewEnumerator(context.Background(), out.answer, nil) // all or nothing: no deadline cuts the render
		defer en.Close()
		if n, _ := en.Count(); n > maxTextRows {
			return nil, nil
		}
		bp := rowBufs.Get().(*[]byte)
		defer rowBufs.Put(bp)
		*bp = appendRows((*bp)[:0], en, 0, 0, q.snap.Value)
		return append(make([]byte, 0, len(*bp)), *bp...), domain
	})
	// One lineage shares one domain slice (database.Domain).
	if len(over) != len(domain) || len(domain) > 0 && &over[0] != &domain[0] {
		return nil
	}
	return rows
}

// width is the wire width: the written query's, which a minimised plan's own
// axes undercut (plan.Plan.MinimizedFrom).
func (q *query) width() int { return max(q.p.MinimizedFrom, len(q.p.Vars)) }

// evaluate is the one evaluation, whatever will be written from it:
// take an evaluation slot (or join the bounded wait queue — overload sheds
// with errOverloaded → 429, a deadline firing while queued is the usual 504),
// raise the in-flight gauge, open the eval span, attach the stage observer,
// run the cached plan panic-contained — from the previous content's entry
// when resume finds one, fresh otherwise, handing back the executor's head as
// it stands with maintenance state beside it — and settle: the work, complete
// or partial, is folded into the aggregate counters and gauge and slot go
// back when the engine returns — the answer is whole by then, so nobody's
// reading of it holds either.
func (s *Server) evaluate(q *query) (out evalOutcome) {
	asp := q.root.Start(trace.SpanAdmission)
	err := s.limiter.acquire(q.ctx)
	asp.End()
	if err != nil {
		return evalOutcome{err: err}
	}
	s.metrics.evalsInFlight.Add(1)
	esp := q.root.Start(trace.SpanEval)
	defer func() {
		esp.End()
		s.foldEvalStats(out.stats)
		s.metrics.evalsInFlight.Add(-1)
		s.limiter.release()
	}()
	// At most one observer per request, and only when something will read
	// it: explain's totals or a live span. Only explain times nodes; an
	// unobserved run has none and skips the hooks.
	if q.req.Explain || esp != nil {
		q.opts.Observe = eval.NewObserver(q.req.Explain)
	}
	// A panic becomes an error — shared with coalesced followers, answered
	// 500. Slot and gauge still go back.
	defer s.containPanic(q.ctx, "evaluator panic", q.reqID, q.req.Query, &out.err)
	if s.testHookBeforeEval != nil {
		s.testHookBeforeEval()
	}
	prev := s.resume(q)
	q.maintained = prev != nil
	out.answer, out.stats, out.mstate, out.err = eval.EvalPlan(q.ctx, q.p, q.snap, &q.opts, prev, true)
	if q.maintained && out.err == nil {
		s.metrics.maintained.Inc()
		esp.Annotate("cache", "maintained")
	}
	if out.stats != nil && out.stats.NodesShared > 0 {
		q.shared = out.stats.NodesShared
		esp.Annotate("nodes_shared", strconv.FormatInt(q.shared, 10))
	}
	if esp == nil {
		return out
	}
	// The call has returned, so its workers are done and the observer is
	// quiescent: one child span per fixpoint, busy time as duration — what
	// feeds bvqd_stage_seconds{stage="fixpoint"}, partial runs included.
	for _, fx := range q.opts.Observe.Fix {
		esp.AddChild(trace.SpanFixpoint, fx.First, fx.Busy,
			[]trace.Attr{{Key: "engine", Value: fx.Engine}, {Key: "fixpoint", Value: fx.Fixpoint}, {Key: "op", Value: fx.Op}},
			trace.Counters{Stages: fx.Stages, Tuples: fx.Tuples, DeltaTuples: fx.DeltaTuples})
	}
	return out
}

// resume returns the state a miss maintains its answer from: that of the
// entry stored for the content its footprint had before the update that last
// touched it, when delta-restart admits that update's delta. Otherwise it
// returns nil and the miss evaluates fresh, counting why when there was an
// entry to resume from. The peek counts nothing: the request's own lookup
// was its one read. A direct request always evaluates fresh.
func (s *Server) resume(q *query) *eval.MaintState {
	if q.direct {
		return nil
	}
	st := q.nd.lastTouch(q.snap, q.p.Maint.Rels)
	if st == nil {
		return nil
	}
	prev, ok := s.results.Peek(cache.WithContent(q.key, st.from.ContentID(q.p.Maint.Rels)))
	switch {
	case !ok:
		return nil
	case prev.State == nil:
		s.metrics.invalidations.With("no_plan").Inc()
	case !eval.CanMaintain(q.p, st.delta):
		s.metrics.invalidations.With("delta_polarity").Inc()
	default:
		return prev.State
	}
	return nil
}

// store puts res, its answer compacted over a domain of n elements, in the
// result cache under key, and returns the answer as kept: the one place an
// answer takes its cached form. The entry gets an empty Text: its first hit
// renders the rows.
func (s *Server) store(key string, res cache.Result, n int) relation.View {
	res.Answer, res.Text = relation.Compact(res.Answer, n), new(cache.Text)
	s.results.Put(key, res)
	return res.Answer
}

// keep stores a run's answer in the result cache with the state a later miss
// resumes from, and returns the answer in its kept form. Two requests keep
// nothing: one that opted out of caching, and a windowed stream, whose point
// is not to pay O(|answer|) — its cursor decodes the window from the head as
// it stands. No lock and no check that q.snap is still current: the key names
// the content the run read, so the entry is right whenever that content is
// asked for again and unreachable otherwise. Maintenance state is captured by
// runs of a prepared plan only.
func (s *Server) keep(q *query, out evalOutcome) relation.View {
	if q.req.NoCache || q.req.Stream && (q.req.Limit > 0 || q.req.Offset > 0) {
		return out.answer
	}
	return s.store(q.key, cache.Result{Answer: out.answer, Stats: out.stats, State: out.mstate}, q.snap.Size())
}

// evaluateShared is a miss, JSON or NDJSON: evaluate, keep. Unless the request
// is direct, concurrent identical requests coalesce on the cache key: one
// leader evaluates, the rest share its outcome — answer, statistics and all —
// and each opens its own cursor on it.
func (s *Server) evaluateShared(q *query) evalOutcome {
	run := func() (evalOutcome, error) {
		out := s.evaluate(q)
		if out.err == nil {
			out.answer = s.keep(q, out)
		}
		return out, out.err
	}
	if q.direct {
		out, _ := run()
		return out
	}
	out, shared, err := s.flight.Do(q.ctx, q.key, run)
	if shared {
		q.coalesced = true
		s.metrics.coalesced.Inc()
	}
	// A follower abandoned by its own context gets a bare error and no
	// outcome; fold it into the same error path.
	if out.err == nil {
		out.err = err
	}
	return out
}

// windowed is the progress of one OFFSET/LIMIT pass over an enumerator — the
// windowing both writers share. It is a value the caller owns so the counts
// survive a panic out of the enumerator or the row callback.
type windowed struct{ skipped, delivered int64 }

// drain seeks past offset tuples, then hands each tuple to row until the
// answer ends, limit rows are delivered (0: no limit) or row reports false.
func (wd *windowed) drain(en eval.Enumerator, offset, limit int, row func(relation.Tuple) bool) {
	if offset > 0 {
		wd.skipped = int64(en.Skip(offset))
	}
	for {
		if limit > 0 && wd.delivered >= int64(limit) {
			return
		}
		t, ok := en.Next()
		if !ok || !row(t) {
			return
		}
		wd.delivered++
	}
}

// drainText is drain over a whole answer's stored text (storedRows) instead of
// a cursor: it hands each row's bytes to row until the text ends or row
// reports false. It is the one place that text is cut into rows.
func (wd *windowed) drainText(text []byte, row func([]byte) bool) {
	for rest := text[1 : len(text)-1]; len(rest) > 0; wd.delivered++ {
		end := bytes.IndexByte(rest, ']') + 1 // a row's values hold no ']'
		if !row(rest[:end]) {
			return
		}
		rest = rest[min(end+1, len(rest)):] // past the ',' between rows
	}
}

// writeAnswer is the JSON writer: the windowed answer rendered into one
// QueryResponse body.
func (s *Server) writeAnswer(w http.ResponseWriter, q *query, out evalOutcome) {
	resp := QueryResponse{
		RequestID:    q.reqID,
		Database:     q.req.Database,
		Engine:       q.engineName,
		Backend:      q.wireBackend,
		Width:        q.width(),
		Arity:        q.p.Query.Arity(),
		Answer:       [][]int{}, // the rows are rendered apart and spliced in
		PlanCached:   q.planCached,
		ResultCached: q.cached,
		Coalesced:    q.coalesced,
		Stats:        out.stats,
		TraceID:      q.lt.ID(),
	}
	if q.req.Explain {
		resp.Explain = eval.Explain(q.p, q.snap, &q.opts)
	}
	xsp := q.root.Start(trace.SpanExtract)
	en := eval.NewEnumerator(q.ctx, out.answer, nil)
	defer en.Close()
	// Count is always the FULL answer cardinality — limit/offset window the
	// answer field only, so a paging client never loses the total.
	resp.Count, _ = en.Count()
	bp := rowBufs.Get().(*[]byte)
	defer rowBufs.Put(bp)
	// A hit writes its stored text where it can; the pool never holds it.
	rows := q.storedRows(out)
	switch {
	case resp.Arity == 0:
		truth := resp.Count > 0
		resp.Truth = &truth
		*bp = append((*bp)[:0], "[]"...)
		rows = *bp
	case rows == nil:
		*bp = appendRows((*bp)[:0], en, q.req.Offset, q.req.Limit, q.snap.Value)
		rows = *bp
	}
	xsp.End()
	if err := en.Err(); err != nil {
		// The deadline fired while the answer was being rendered.
		s.rejectEval(w, q, evalOutcome{stats: out.stats, err: err})
		return
	}
	resp.ElapsedMS = float64(time.Since(q.start).Microseconds()) / 1000

	// The envelope goes through encoding/json with an empty answer array, and
	// the rendered rows take that array's place: `"answer":[]` is the field's
	// only unescaped spelling, and a string value before it (request ID,
	// database name) can only hold it with its quotes escaped.
	var env bytes.Buffer
	enc := json.NewEncoder(&env)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(resp) // wire structs into memory: cannot fail
	const field = `"answer":`
	cut := bytes.Index(env.Bytes(), []byte(field+"[]")) + len(field)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(env.Len()-len("[]")+len(rows)))
	w.WriteHeader(http.StatusOK)
	// The client is gone if a write fails; nothing to do.
	_, _ = w.Write(env.Bytes()[:cut])
	_, _ = w.Write(rows)
	_, _ = w.Write(env.Bytes()[cut+len("[]"):])
}

// appendRows appends the offset/limit window of en as a JSON array of rows,
// byte for byte encoding/json's rendering of the same [][]int.
func appendRows(b []byte, en eval.Enumerator, offset, limit int, value func(int) int) []byte {
	b = append(b, '[')
	var wd windowed
	wd.drain(en, offset, limit, func(t relation.Tuple) bool {
		if wd.delivered > 0 {
			b = append(b, ',')
		}
		b = appendRow(b, t, value)
		return true
	})
	return append(b, ']')
}

// rejectEval answers a failed evaluation. A 504 carries the partial work the
// engine had done when the deadline fired; a stream that failed before its
// first byte has always carried the run's statistics whatever the status.
func (s *Server) rejectEval(w http.ResponseWriter, q *query, out evalOutcome) {
	q.status = s.evalErrorCode(w, out.err)
	var partial *StatsJSON
	if q.status == http.StatusGatewayTimeout || q.req.Stream {
		partial = out.stats
	}
	s.fail(w, q.status, out.err, partial, q.reqID)
}

// finish is the request epilogue: latency and status metrics, the lifecycle
// trace filed with the flight recorder (kept when shed, failed or slow), and
// the slow-query log line.
func (s *Server) finish(r *http.Request, q *query) {
	defer s.metrics.requestsInFlight.Add(-1)
	elapsed := time.Since(q.start)
	s.metrics.observe(q.engineName, q.status, elapsed)
	slow := s.slowQuery > 0 && elapsed >= s.slowQuery
	if q.lt != nil {
		q.root.Annotate("database", q.req.Database)
		q.root.Annotate("engine", q.engineName)
		q.root.Annotate("status", strconv.Itoa(q.status))
		switch {
		case q.status == http.StatusTooManyRequests:
			q.lt.Keep("shed")
		case q.status >= http.StatusInternalServerError:
			q.lt.Keep("error")
		case slow:
			q.lt.Keep("slow")
		}
		q.lt.Close(time.Now())
		s.recordTrace(q.lt)
	}
	if !slow {
		return
	}
	s.metrics.slow.Inc()
	attrs := []slog.Attr{
		slog.String("request_id", q.reqID),
		slog.String("database", q.req.Database),
		slog.String("engine", q.engineName),
		slog.String("backend", q.backendName),
		slog.String("cache", q.cacheOutcome()),
		slog.Int64("nodes_shared", q.shared),
		slog.String("query", q.req.Query),
		slog.Int("status", q.status),
		slog.Float64("elapsed_ms", float64(elapsed.Microseconds())/1000),
	}
	if q.lt != nil {
		attrs = append(attrs,
			slog.String("trace_id", q.lt.ID()),
			slog.String("spans", topSpans(q.lt.View(), 3)))
	}
	s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query", attrs...)
}
