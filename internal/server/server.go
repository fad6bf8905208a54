// Package server implements bvqd, the long-running bounded-variable query
// service. It is the serving-shaped reading of the paper: Proposition 3.1
// makes combined complexity polynomial, so a daemon can afford to evaluate
// ad-hoc queries from many clients — and the constant-delay line of work
// (Durand–Grandjean) frames exactly this split: amortize preprocessing,
// then answer many queries cheaply. The preprocessing amortized here:
//
//   - parse + width computation — and, for the compiled engine, the full
//     DAG plan (internal/plan) — memoized in an LRU plan cache keyed by
//     query text;
//   - whole evaluations, memoized in an LRU result cache keyed by
//     (database fingerprint, engine, options, query text) — sound because
//     database snapshots are immutable values and engines deterministic;
//   - concurrent identical requests, coalesced by single-flight dedup so a
//     thundering herd costs one evaluation.
//
// Every request carries its own engine, parallelism and deadline; deadlines
// are enforced by context cancellation at fixpoint-stage boundaries (see
// eval.BottomUpContext), so a timed-out request returns within one stage of
// its deadline with the partial work statistics it accumulated.
//
// Sustained traffic gets three more layers (see OPERATIONS.md):
//
//   - admission control: a configurable concurrency limit with a bounded
//     wait queue in front of evaluation; overload is answered 429 with a
//     Retry-After header instead of queueing without bound;
//   - observability: Prometheus text-format metrics on GET /metrics,
//     per-stage fixpoint tracing via the request's trace flag, and
//     structured slow-query logs (log/slog JSON) keyed by request ID;
//   - panic containment: an evaluator panic is recovered, counted, and
//     answered 500 — it never takes down the daemon or strands coalesced
//     followers.
//
// Databases are served as MVCC snapshots: POST /db/{name}/update applies
// tuple-level inserts and deletes (database.Apply), atomically swapping in a
// new snapshot while in-flight queries finish against the old one. The
// update path triages the result cache by dependency footprint — carrying
// disjoint entries to the new fingerprint, re-deriving maintainable ones by
// delta-restart (eval.EvalPlanMaintained), dropping the rest — and never
// touches the plan cache, which is keyed by query text alone (update.go).
//
// Endpoints: POST /query (JSON in/out), POST /db/{name}/update (tuple-level
// mutation), GET /stats (JSON counters), GET /metrics (Prometheus text),
// GET /healthz. The package is stdlib-only; cmd/bvqd is the thin main.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/trace"
)

// Config configures a Server.
type Config struct {
	// Databases maps serving names to loaded databases. At least one is
	// required.
	Databases map[string]*database.Database
	// PlanCacheSize bounds the plan cache (entries). 0 means DefaultPlanCacheSize;
	// negative disables plan caching.
	PlanCacheSize int
	// ResultCacheSize bounds the result cache (entries). 0 means
	// DefaultResultCacheSize; negative disables result caching.
	ResultCacheSize int
	// DefaultTimeout applies when a request does not set timeout_ms.
	// 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request deadlines. 0 means no clamp.
	MaxTimeout time.Duration
	// MaxConcurrentEvals bounds how many evaluations run at once (after
	// cache hits and single-flight dedup). 0 means unlimited — the
	// pre-admission-control behavior.
	MaxConcurrentEvals int
	// MaxEvalQueue bounds how many requests may wait for an evaluation
	// slot; arrivals beyond it are shed with 429. 0 means
	// 2×MaxConcurrentEvals. Ignored when MaxConcurrentEvals is 0.
	MaxEvalQueue int
	// RetryAfter is the Retry-After hint attached to shed responses (429,
	// and 504s whose deadline fired while queued), rounded up to whole
	// seconds. 0 means 1s.
	RetryAfter time.Duration
	// RetryAfterJitter bounds the random spread added to RetryAfter on each
	// shed response: the header value is uniform in
	// [RetryAfter, RetryAfter+RetryAfterJitter] seconds, so a fleet of
	// clients (or a router's worth of queued retries) shed at the same
	// instant does not come back at the same instant. 0 means half of
	// RetryAfter, at least 1s; negative disables jitter (a fixed header).
	RetryAfterJitter time.Duration
	// SlowQuery is the slow-query logging threshold: requests taking at
	// least this long are logged through Logger at warn level. 0 disables
	// slow-query logging.
	SlowQuery time.Duration
	// Logger receives structured logs (slow queries, recovered panics).
	// nil means discard.
	Logger *slog.Logger
	// TraceBufferSize enables the flight recorder: the last N finished
	// request traces are kept in memory and served on GET /debug/traces.
	// 0 disables lifecycle tracing entirely (the zero-overhead default).
	TraceBufferSize int
	// TraceKeepSize bounds the always-keep buffer holding slow/error/shed
	// traces regardless of ring churn. 0 means TraceBufferSize/4, min 8.
	TraceKeepSize int
	// TraceSample records 1 in N requests into the flight recorder (slow,
	// error and shed requests are always candidates once traced — sampling
	// decides whether a trace is built at all). 0 or 1 means every request.
	TraceSample int
}

// Cache sizing defaults. Plans are small (an AST per distinct query text);
// results hold a relation each, so the default is sized for k ≤ 3 answers
// over domains of a few hundred elements — override per deployment, see
// OPERATIONS.md.
const (
	DefaultPlanCacheSize   = 1024
	DefaultResultCacheSize = 4096
)

// maxTraceEvents caps the per-request trace a traced evaluation may return:
// a runaway PFP sweep can produce millions of stage events, and the trace
// is a debugging aid, not a firehose. Truncation is flagged in the response.
const maxTraceEvents = 4096

// errEvalPanic wraps a recovered evaluator panic; the handler maps it to a
// 500 response.
var errEvalPanic = errors.New("server: evaluation panicked")

// Server is the bvqd HTTP query service. Construct with New; serve
// Handler(); all methods are safe for concurrent use.
type Server struct {
	dbs      map[string]*namedDB
	plans    *cache.PlanCache
	results  *cache.ResultCache
	index    *cache.Index
	flight   *cache.Flight[evalOutcome]
	limiter  *limiter
	metrics  *serverMetrics
	logger   *slog.Logger
	recorder *trace.Recorder // nil: lifecycle tracing disabled
	sample   int64           // record 1 in sample requests

	defaultTimeout   time.Duration
	maxTimeout       time.Duration
	slowQuery        time.Duration
	retryAfterBase   int64 // Retry-After floor, whole seconds
	retryAfterJitter int64 // uniform spread above the floor, whole seconds
	start            time.Time

	reqSeq atomic.Int64 // request-ID sequence

	queries   atomic.Int64 // requests to /query
	errorsN   atomic.Int64 // requests answered 4xx/5xx
	timeouts  atomic.Int64 // requests answered 504
	coalesced atomic.Int64 // requests served by another request's evaluation

	streams           atomic.Int64 // streamed (NDJSON) /query requests
	streamDisconnects atomic.Int64 // streams cut by a client disconnect mid-answer

	requestsInFlight atomic.Int64 // /query requests currently being handled
	evalsInFlight    atomic.Int64 // evaluations currently running (post-dedup)

	subformulaEvals atomic.Int64 // aggregate engine work, incl. partial runs
	fixIterations   atomic.Int64
	tuplesTouched   atomic.Int64 // sparse-backend tuple work across all runs
	repSwitches     atomic.Int64 // sparse→dense hybrid-frontier conversions
	acyclicFast     atomic.Int64 // queries answered by the Yannakakis fast path

	updates            atomic.Int64 // effective updates accepted on /db/{name}/update
	carriedResults     atomic.Int64 // cached results rekeyed across updates untouched
	maintainedResults  atomic.Int64 // cached results re-derived by delta-restart
	invalidatedResults atomic.Int64 // cached results dropped by updates

	// testHookBeforeEval, when set, runs inside the evaluation closure after
	// admission, before the engine. Tests use it to inject panics and to
	// hold evaluation slots open.
	testHookBeforeEval func()
	// testHookOnStreamRow, when set, runs in the stream drain loop before
	// each row is encoded, with the 0-based row index. Tests use it to
	// inject mid-stream failures after the first byte is out.
	testHookOnStreamRow func(row int)
}

// namedDB is one served database lineage. Queries load the current snapshot
// once (an atomic pointer read) and evaluate against it for their whole
// lifetime — an update concurrently swapping the pointer never disturbs them
// (MVCC snapshot isolation, database.Apply). mu serializes updates and result
// registration: a result computed against a superseded snapshot must not
// enter the cache or the churn index, where a later update would wrongly
// carry it forward.
type namedDB struct {
	name string
	mu   sync.Mutex
	snap atomic.Pointer[dbSnap]
}

// dbSnap pairs a snapshot with its fingerprint (computed once per swap).
type dbSnap struct {
	db *database.Database
	fp uint64
}

// evalOutcome is what one evaluation produces — shared between coalesced
// requests, including the partial statistics of a cancelled run.
type evalOutcome struct {
	answer *bvq.Relation
	stats  *eval.Stats
	err    error
}

// New validates cfg and returns a Server.
func New(cfg Config) (*Server, error) {
	if len(cfg.Databases) == 0 {
		return nil, fmt.Errorf("server: no databases configured")
	}
	planSize, resultSize := cfg.PlanCacheSize, cfg.ResultCacheSize
	if planSize == 0 {
		planSize = DefaultPlanCacheSize
	}
	if resultSize == 0 {
		resultSize = DefaultResultCacheSize
	}
	retryAfter := cfg.RetryAfter
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	retryBase := int64((retryAfter + time.Second - 1) / time.Second)
	var retryJitter int64
	switch {
	case cfg.RetryAfterJitter > 0:
		retryJitter = int64((cfg.RetryAfterJitter + time.Second - 1) / time.Second)
	case cfg.RetryAfterJitter == 0:
		retryJitter = max(retryBase/2, 1)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := &Server{
		dbs:              make(map[string]*namedDB, len(cfg.Databases)),
		plans:            cache.NewPlanCache(max(planSize, 0)),
		results:          cache.NewResultCache(max(resultSize, 0)),
		index:            cache.NewIndex(max(resultSize, 0)),
		flight:           cache.NewFlight[evalOutcome](),
		limiter:          newLimiter(cfg.MaxConcurrentEvals, cfg.MaxEvalQueue),
		logger:           logger,
		defaultTimeout:   cfg.DefaultTimeout,
		maxTimeout:       cfg.MaxTimeout,
		slowQuery:        cfg.SlowQuery,
		retryAfterBase:   retryBase,
		retryAfterJitter: retryJitter,
		start:            time.Now(),
		sample:           1,
	}
	if cfg.TraceSample > 1 {
		s.sample = int64(cfg.TraceSample)
	}
	if cfg.TraceBufferSize > 0 {
		keep := cfg.TraceKeepSize
		if keep <= 0 {
			keep = max(cfg.TraceBufferSize/4, 8)
		}
		s.recorder = trace.NewRecorder(cfg.TraceBufferSize, keep)
	}
	for name, db := range cfg.Databases {
		if name == "" || db == nil {
			return nil, fmt.Errorf("server: invalid database entry %q", name)
		}
		nd := &namedDB{name: name}
		nd.snap.Store(&dbSnap{db: db, fp: db.Fingerprint()})
		s.dbs[name] = nd
		// Pin the churn index to the initial snapshot so registrations from
		// evals that straddle an update are rejected by generation, not just
		// by the update path's own fingerprint check.
		s.index.Advance(name, db.Fingerprint())
	}
	// Last: the metric collectors close over the fields initialized above.
	s.metrics = newServerMetrics(s)
	return s, nil
}

// Handler returns the daemon's HTTP routes, wrapped in a recovery middleware
// that converts any handler panic into a 500 instead of killing the
// connection (and, under http.Server, flooding stderr with stack traces).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /db/{name}/update", s.handleUpdate)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.metrics.registry.ServeHTTP)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	return s.recoverPanics(mux)
}

// recoverPanics is the outer safety net: evaluation panics are already
// recovered inside the evaluation closure, so this catches only bugs in the
// handlers themselves.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Inc()
				s.errorsN.Add(1)
				s.logger.LogAttrs(r.Context(), slog.LevelError, "handler panic",
					slog.String("path", r.URL.Path), slog.Any("panic", p))
				writeJSON(w, http.StatusInternalServerError,
					ErrorResponse{Error: fmt.Sprintf("internal error: %v", p)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// QueryRequest is the /query request body.
type QueryRequest struct {
	// Database names one of the served databases. Required.
	Database string `json:"database"`
	// Query is the query text, e.g. "(x, y). exists z. E(x, z) & E(z, y)".
	Query string `json:"query"`
	// Engine selects the evaluation algorithm (bottomup, naive, algebra,
	// monotone, eso, certified, compiled). Empty means bottomup.
	Engine string `json:"engine,omitempty"`
	// Backend selects the compiled engine's relation representation: auto
	// (default — the density heuristic picks), dense (force the full-width
	// nᵏ bitmap engine) or sparse (force sorted tuple blocks with the
	// acyclic Yannakakis fast path). Only the compiled engine understands
	// backends; any other engine with a non-auto backend is a 400.
	Backend string `json:"backend,omitempty"`
	// MaxWidth rejects queries of width > MaxWidth (the Lᵏ membership
	// check). 0 means unbounded; negative is a 400.
	MaxWidth int `json:"max_width,omitempty"`
	// Parallelism bounds the PFP sweep's worker pool. 0 means GOMAXPROCS;
	// negative is a 400. Does not affect answers, only latency.
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS is this request's evaluation deadline in milliseconds,
	// clamped to the server's maximum. 0 means the server default;
	// negative is a 400.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache and single-flight dedup: the
	// request always evaluates fresh and does not store its result.
	NoCache bool `json:"no_cache,omitempty"`
	// Trace returns the evaluation's fixpoint-stage trace in the response.
	// A traced request always evaluates fresh (no cache read, no
	// coalescing — the trace must describe this run), but its result is
	// still stored unless no_cache is also set.
	Trace bool `json:"trace,omitempty"`
	// Indices reports answer tuples as domain indices 0..n−1 instead of
	// raw domain values.
	Indices bool `json:"indices,omitempty"`
	// Stream switches the response to NDJSON (application/x-ndjson): a
	// header line, one line per answer tuple flushed as it decodes, and a
	// trailer line with the final statistics. Streamed requests evaluate
	// through the enumeration API — on the compiled engine, a LIMIT-k
	// stream stops the extraction (and, on the acyclic fast path, the
	// evaluation itself) after k tuples. Streams bypass single-flight
	// coalescing but still read the result cache; trace is not supported
	// with stream.
	Stream bool `json:"stream,omitempty"`
	// Limit caps how many answer tuples are returned (after Offset).
	// 0 means all. The JSON response's count field (and the stream
	// trailer's, when known) always reports the FULL answer cardinality,
	// not the window's size. Limit and Offset are excluded from result-cache
	// keys, so a cached full result serves any windowed request.
	Limit int `json:"limit,omitempty"`
	// Offset skips that many answer tuples (in the canonical sorted order)
	// before returning any. 0 means none.
	Offset int `json:"offset,omitempty"`
	// Explain returns the compiled plan DAG annotated with the density
	// decision, maintenance eligibility and backend route, plus per-node
	// wall time and per-binder stage counts from this run. Requires the
	// compiled engine; like trace, an explained request always evaluates
	// fresh (the annotations must describe this run). Not supported with
	// stream.
	Explain bool `json:"explain,omitempty"`
}

// QueryResponse is the /query success body.
type QueryResponse struct {
	// RequestID identifies this request in slow-query logs; it is also
	// returned in the X-Request-Id response header.
	RequestID string `json:"request_id"`
	Database  string `json:"database"`
	Engine    string `json:"engine"`
	// Backend echoes the resolved relation backend (auto, dense, sparse)
	// when the request selected one explicitly.
	Backend string `json:"backend,omitempty"`
	// Width is the query's variable count (its Lᵏ class).
	Width int `json:"width"`
	// Arity is the answer arity; for arity 0 (Boolean queries) Truth is
	// set and Answer omitted.
	Arity  int     `json:"arity"`
	Truth  *bool   `json:"truth,omitempty"`
	Answer [][]int `json:"answer"`
	Count  int     `json:"count"`
	// PlanCached / ResultCached / Coalesced report how the request was
	// served: parse skipped, evaluation skipped, or evaluation shared with
	// a concurrent identical request.
	PlanCached   bool `json:"plan_cached"`
	ResultCached bool `json:"result_cached"`
	Coalesced    bool `json:"coalesced"`
	// ElapsedMS is the server-side handling time of this request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Stats is the engine work of the evaluation that produced the answer
	// (the original run's, when served from cache); nil for engines that
	// do not report statistics.
	Stats *StatsJSON `json:"stats,omitempty"`
	// Trace is the fixpoint-stage trace when the request set trace;
	// TraceTruncated reports that it was cut at the event cap.
	Trace          []TraceStageJSON `json:"trace,omitempty"`
	TraceTruncated bool             `json:"trace_truncated,omitempty"`
	// TraceID is the W3C trace ID of this request's lifecycle trace when the
	// flight recorder sampled it; the trace is retrievable at
	// GET /debug/traces/{id} until it ages out of the ring.
	TraceID string `json:"trace_id,omitempty"`
	// Explain is the annotated plan DAG when the request set explain.
	Explain *plan.Explain `json:"explain,omitempty"`
}

// TraceStageJSON is one fixpoint stage of a traced evaluation.
type TraceStageJSON struct {
	Engine    string  `json:"engine"`
	Fixpoint  string  `json:"fixpoint"`
	Op        string  `json:"op"`
	Stage     int     `json:"stage"`
	Tuples    int     `json:"tuples"`
	Delta     int     `json:"delta"`
	ElapsedUS float64 `json:"elapsed_us"`
}

// ErrorResponse is the /query error body.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
	// Stats carries the partial work statistics of a cancelled evaluation
	// (504 only): what the engine had done when the deadline fired.
	Stats *StatsJSON `json:"stats,omitempty"`
}

// StatsJSON mirrors eval.Stats in the wire format.
type StatsJSON struct {
	SubformulaEvals       int64 `json:"subformula_evals"`
	FixIterations         int64 `json:"fix_iterations"`
	MaxIntermediateArity  int64 `json:"max_intermediate_arity"`
	MaxIntermediateTuples int64 `json:"max_intermediate_tuples"`
	// NodesReused and DeltaTuples are reported by the compiled engine only:
	// plan-cache reads served without recomputation, and tuples pushed
	// through semi-naive stage deltas.
	NodesReused int64 `json:"nodes_reused,omitempty"`
	DeltaTuples int64 `json:"delta_tuples,omitempty"`
	// TuplesTouched, RepSwitches and AcyclicFastPath are reported by the
	// compiled engine's sparse backend: tuples written by sparse operations,
	// sparse→dense conversions at the hybrid frontier, and whether the
	// Yannakakis acyclic-join pipeline answered the query.
	TuplesTouched   int64 `json:"tuples_touched,omitempty"`
	RepSwitches     int64 `json:"rep_switches,omitempty"`
	AcyclicFastPath int64 `json:"acyclic_fast_path,omitempty"`
	// MaintainedFromDelta is 1 when the run that produced this answer was a
	// delta-restart maintenance run (the cached result was re-derived after
	// an update rather than recomputed from scratch).
	MaintainedFromDelta int64 `json:"maintained_from_delta,omitempty"`
	// TuplesStreamed and TuplesSkipped are reported by streamed (or
	// windowed) evaluations: answer tuples decoded and delivered, and
	// tuples skipped without decoding by OFFSET seeks.
	TuplesStreamed int64 `json:"tuples_streamed,omitempty"`
	TuplesSkipped  int64 `json:"tuples_skipped,omitempty"`
}

func statsJSON(st *eval.Stats) *StatsJSON {
	if st == nil {
		return nil
	}
	return &StatsJSON{
		SubformulaEvals:       st.SubformulaEvals,
		FixIterations:         st.FixIterations,
		MaxIntermediateArity:  st.MaxIntermediateArity,
		MaxIntermediateTuples: st.MaxIntermediateTuples,
		NodesReused:           st.NodesReused,
		DeltaTuples:           st.DeltaTuples,
		TuplesTouched:         st.TuplesTouched,
		RepSwitches:           st.RepSwitches,
		AcyclicFastPath:       st.AcyclicFastPath,
		MaintainedFromDelta:   st.MaintainedFromDelta,
		TuplesStreamed:        st.TuplesStreamed,
		TuplesSkipped:         st.TuplesSkipped,
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.queries.Add(1)
	s.requestsInFlight.Add(1)
	defer s.requestsInFlight.Add(-1)

	seq := s.reqSeq.Add(1)
	reqID := clientRequestID(r)
	if reqID == "" {
		reqID = fmt.Sprintf("%08x", seq)
	}
	w.Header().Set("X-Request-Id", reqID)

	// Lifecycle trace: built for 1 in TraceSample requests when the flight
	// recorder is on, continuing the client's W3C trace when it sent a
	// traceparent header (so a front tier can stitch fleet-wide traces).
	// Untraced requests never allocate a span — every *trace.Span method is
	// a nil no-op.
	var lt *trace.Trace
	var root *trace.Span
	if s.recorder != nil && seq%s.sample == 0 {
		traceID, _, ok := trace.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			traceID = trace.NewTraceID()
		}
		lt = trace.New(traceID, start)
		root = lt.Root()
		root.Annotate("request_id", reqID)
		w.Header().Set("traceparent", trace.FormatTraceparent(traceID, trace.NewSpanID()))
	}

	var req QueryRequest
	var engineName, backendName string
	var resp QueryResponse
	direct := false
	status := http.StatusOK
	defer func() {
		elapsed := time.Since(start)
		s.metrics.observe(engineName, status, elapsed)
		slow := s.slowQuery > 0 && elapsed >= s.slowQuery
		if lt != nil {
			root.Annotate("database", req.Database)
			root.Annotate("engine", engineName)
			root.Annotate("status", strconv.Itoa(status))
			switch {
			case status == http.StatusTooManyRequests:
				lt.Keep("shed")
			case status >= http.StatusInternalServerError:
				lt.Keep("error")
			case slow:
				lt.Keep("slow")
			}
			lt.Close(time.Now())
			s.recordTrace(lt)
		}
		if slow {
			s.metrics.slow.Inc()
			attrs := []slog.Attr{
				slog.String("request_id", reqID),
				slog.String("database", req.Database),
				slog.String("engine", engineName),
				slog.String("backend", backendName),
				slog.String("cache", cacheOutcome(&resp, direct)),
				slog.String("query", req.Query),
				slog.Int("status", status),
				slog.Float64("elapsed_ms", float64(elapsed.Microseconds())/1000),
			}
			if lt != nil {
				attrs = append(attrs,
					slog.String("trace_id", lt.ID()),
					slog.String("spans", topSpans(lt.View(), 3)))
			}
			s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query", attrs...)
		}
	}()
	fail := func(code int, err error, partial *StatsJSON) {
		status = code
		s.fail(w, code, err, partial, reqID)
	}

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("decoding request: %w", err), nil)
		return
	}
	// Validate numeric wire fields up front: a negative value is always a
	// client bug, and letting it through would select unintended semantics
	// (e.g. a negative width bound disabling the Lᵏ check).
	if req.Parallelism < 0 {
		fail(http.StatusBadRequest,
			fmt.Errorf("invalid parallelism %d: must be ≥ 0 (0 means GOMAXPROCS)", req.Parallelism), nil)
		return
	}
	if req.MaxWidth < 0 {
		fail(http.StatusBadRequest,
			fmt.Errorf("invalid max_width %d: must be ≥ 0 (0 means unbounded)", req.MaxWidth), nil)
		return
	}
	if req.TimeoutMS < 0 {
		fail(http.StatusBadRequest,
			fmt.Errorf("invalid timeout_ms %d: must be ≥ 0 (0 means the server default)", req.TimeoutMS), nil)
		return
	}
	if req.Limit < 0 {
		fail(http.StatusBadRequest,
			fmt.Errorf("invalid limit %d: must be ≥ 0 (0 means all tuples)", req.Limit), nil)
		return
	}
	if req.Offset < 0 {
		fail(http.StatusBadRequest,
			fmt.Errorf("invalid offset %d: must be ≥ 0", req.Offset), nil)
		return
	}
	if req.Stream && req.Trace {
		fail(http.StatusBadRequest,
			fmt.Errorf("trace is not supported with stream: the trace belongs to the JSON response body"), nil)
		return
	}
	if req.Stream && req.Explain {
		fail(http.StatusBadRequest,
			fmt.Errorf("explain is not supported with stream: the plan profile belongs to the JSON response body"), nil)
		return
	}
	nd, ok := s.dbs[req.Database]
	if !ok {
		fail(http.StatusNotFound, fmt.Errorf("unknown database %q", req.Database), nil)
		return
	}
	// One atomic load pins this request's snapshot: concurrent updates swap
	// the pointer but never touch the snapshot value itself, so everything
	// below — evaluation, cache keys, answer rendering — is consistent.
	snap := nd.snap.Load()
	engineName = req.Engine
	if engineName == "" {
		engineName = bvq.EngineBottomUp.String()
	}
	engine, err := bvq.EngineByName(engineName)
	if err != nil {
		fail(http.StatusBadRequest, err, nil)
		return
	}
	backend, err := eval.BackendByName(req.Backend)
	if err != nil {
		fail(http.StatusBadRequest, err, nil)
		return
	}
	if backend != eval.BackendAuto && engine != bvq.EngineCompiled {
		fail(http.StatusBadRequest,
			fmt.Errorf("backend %q requires the compiled engine (got %q)", backend, engineName), nil)
		return
	}
	if req.Explain && engine != bvq.EngineCompiled {
		fail(http.StatusBadRequest,
			fmt.Errorf("explain requires the compiled engine (got %q): only compiled queries have a plan DAG", engineName), nil)
		return
	}
	backendName = backend.String()
	s.metrics.backends.With(backendName).Inc()
	csp := root.Start(trace.SpanCompile)
	pl, planCached, err := s.plans.Load(req.Query)
	csp.End()
	if err != nil {
		fail(http.StatusBadRequest, err, nil)
		return
	}
	if req.Explain && pl.Prepared == nil {
		fail(http.StatusBadRequest,
			fmt.Errorf("explain: query is outside the compilable fragment (no plan DAG)"), nil)
		return
	}
	if req.MaxWidth > 0 && pl.Width > req.MaxWidth {
		fail(http.StatusBadRequest,
			fmt.Errorf("query width %d exceeds bound k=%d", pl.Width, req.MaxWidth), nil)
		return
	}

	ctx := r.Context()
	timeout := s.defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.maxTimeout > 0 && (timeout == 0 || timeout > s.maxTimeout) {
		timeout = s.maxTimeout
	}
	if timeout > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	opts := &eval.Options{MaxWidth: req.MaxWidth, Parallelism: req.Parallelism, Backend: backend}
	var traceMu sync.Mutex
	var traceEvents []TraceStageJSON
	var traceTruncated bool
	var reqTracer eval.Tracer
	if req.Trace {
		reqTracer = func(ev eval.TraceEvent) {
			traceMu.Lock()
			if len(traceEvents) < maxTraceEvents {
				traceEvents = append(traceEvents, TraceStageJSON{
					Engine:    ev.Engine,
					Fixpoint:  ev.Fixpoint,
					Op:        ev.Op,
					Stage:     ev.Stage,
					Tuples:    ev.Tuples,
					Delta:     ev.Delta,
					ElapsedUS: float64(ev.Elapsed.Nanoseconds()) / 1000,
				})
			} else {
				traceTruncated = true
			}
			traceMu.Unlock()
		}
	}
	// Explain collects per-binder stage totals through the same tracer hook
	// and a per-node profile through eval.Options.Profile. Neither changes
	// answers, so both are excluded from the result key — but an explained
	// request evaluates fresh anyway (direct below).
	var binderMu sync.Mutex
	var binderStats map[int]*binderAgg
	var explainTracer eval.Tracer
	if req.Explain {
		binderStats = make(map[int]*binderAgg)
		explainTracer = func(ev eval.TraceEvent) {
			if ev.Binder < 0 {
				return
			}
			binderMu.Lock()
			a := binderStats[ev.Binder]
			if a == nil {
				a = &binderAgg{}
				binderStats[ev.Binder] = a
			}
			a.stages++
			if d := ev.Delta; d >= 0 {
				a.delta += int64(d)
			} else {
				a.delta -= int64(d)
			}
			a.ns += ev.Elapsed.Nanoseconds()
			binderMu.Unlock()
		}
		opts.Profile = eval.NewPlanProfile(pl.Prepared.NumNodes())
	}
	opts.Tracer = chainTracers(reqTracer, explainTracer)
	// The tracer is excluded from the result key (it never changes the
	// answer), so traced and untraced runs share cache entries.
	key := cache.ResultKey(snap.fp, engineName, opts, req.Query)

	resp = QueryResponse{
		RequestID:  reqID,
		Database:   req.Database,
		Engine:     engineName,
		Width:      pl.Width,
		Arity:      pl.Query.Arity(),
		PlanCached: planCached,
		TraceID:    lt.ID(),
	}
	if req.Backend != "" {
		resp.Backend = backendName
	}

	if req.Stream {
		status = s.streamQuery(ctx, w, r, &req, nd, snap, pl, engine, engineName, opts, key, &resp, start, root)
		return
	}

	// A traced or explained request must run the evaluation itself: a cache
	// read or a coalesced ride-along would return an answer with someone
	// else's (or no) trace and profile.
	direct = req.NoCache || req.Trace || req.Explain

	var out evalOutcome
	if !direct {
		clsp := root.Start(trace.SpanCacheLookup)
		hit, ok := s.results.Get(key)
		clsp.End()
		if ok {
			resp.ResultCached = true
			out = evalOutcome{answer: hit.Answer, stats: hit.Stats}
		}
	}
	if !resp.ResultCached {
		run := func() (out evalOutcome, err error) {
			// Admission: take an evaluation slot or join the bounded wait
			// queue; overload sheds with errOverloaded → 429, and a deadline
			// firing while queued surfaces as the usual 504.
			asp := root.Start(trace.SpanAdmission)
			if aerr := s.limiter.acquire(ctx); aerr != nil {
				asp.End()
				return evalOutcome{err: aerr}, aerr
			}
			asp.End()
			defer s.limiter.release()
			s.evalsInFlight.Add(1)
			defer s.evalsInFlight.Add(-1)
			// Contain evaluator panics: convert to an error shared with any
			// coalesced followers and answered 500. The deferred slot and
			// gauge releases above still run, so a panicking query leaks
			// nothing.
			defer s.containPanic(ctx, "evaluator panic", reqID, req.Query, &err)
			if s.testHookBeforeEval != nil {
				s.testHookBeforeEval()
			}
			// The compiled engine reuses the DAG plan prepared when the
			// query entered the plan cache — compilation is amortized the
			// same way parsing is. A nil Prepared (non-compilable fragment)
			// falls through to the generic path, which recompiles and
			// surfaces the real error.
			var ans *bvq.Relation
			var st *eval.Stats
			var mstate *eval.MaintState
			var eerr error
			// The eval span folds fixpoint-stage events into per-fixpoint
			// child spans; chainTracers drops nil members, so an untraced
			// request keeps a nil Tracer and the engines skip the hook.
			esp := root.Start(trace.SpanEval)
			opts.Tracer = chainTracers(reqTracer, explainTracer, trace.Stages(esp))
			defer esp.End()
			if engine == bvq.EngineCompiled && pl.Prepared != nil {
				// Capture maintenance state alongside the answer: if an
				// update later touches this query's footprint, the cached
				// result can be re-derived by delta-restart instead of being
				// dropped (update.go).
				ans, st, mstate, eerr = eval.EvalPlanCapture(ctx, pl.Prepared, snap.db, opts)
			} else {
				ans, st, eerr = bvq.EvalStatsContext(ctx, pl.Query, snap.db, engine, opts)
			}
			// Fold this run's work — complete or partial — into the
			// aggregate gauges before anything is shared or cached.
			s.foldEvalStats(st)
			if eerr == nil && !req.NoCache {
				s.storeResult(nd, snap, key, cache.Result{Answer: ans, Stats: st},
					trackedResult(key, engine, engineName, req.Query, opts, pl, mstate))
			}
			return evalOutcome{answer: ans, stats: st, err: eerr}, eerr
		}
		if direct {
			out, err = run()
		} else {
			var shared bool
			out, shared, err = s.flight.Do(ctx, key, run)
			if shared {
				resp.Coalesced = true
				s.coalesced.Add(1)
			}
		}
		// A contained panic, or a follower abandoned by its own context,
		// yields a bare error with no outcome; fold it into the same error
		// path.
		if out.err == nil && err != nil {
			out.err = err
		}
	}
	if out.err != nil {
		code := s.evalErrorCode(w, out.err)
		var partial *StatsJSON
		if code == http.StatusGatewayTimeout {
			partial = statsJSON(out.stats)
		}
		fail(code, out.err, partial)
		return
	}

	resp.Stats = statsJSON(out.stats)
	if req.Explain {
		resp.Explain = s.buildExplain(pl.Prepared, snap.db, opts, out.stats, binderStats, &binderMu)
	}
	// Count is always the FULL answer cardinality — limit/offset window the
	// answer field only, so a paging client never loses the total.
	resp.Count = out.answer.Len()
	xsp := root.Start(trace.SpanExtract)
	if resp.Arity == 0 {
		truth := out.answer.Len() > 0
		resp.Truth = &truth
		resp.Answer = [][]int{}
	} else {
		tuples := out.answer.Tuples() // canonical sorted order: deterministic bodies
		if req.Offset > 0 {
			if req.Offset >= len(tuples) {
				tuples = nil
			} else {
				tuples = tuples[req.Offset:]
			}
		}
		if req.Limit > 0 && req.Limit < len(tuples) {
			tuples = tuples[:req.Limit]
		}
		resp.Answer = make([][]int, len(tuples))
		for i, t := range tuples {
			resp.Answer[i] = renderTuple(t, snap.db, req.Indices)
		}
	}
	xsp.End()
	if req.Trace {
		traceMu.Lock()
		resp.Trace = traceEvents
		resp.TraceTruncated = traceTruncated
		traceMu.Unlock()
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// containPanic contains an evaluator panic on the goroutine that defers it
// (directly — recover only sees a panic from the deferred function itself):
// the panic is counted, logged under what, and stored in *errp as an
// errEvalPanic, so the request fails with a 500 (or an error trailer) instead
// of taking the daemon down.
func (s *Server) containPanic(ctx context.Context, what, reqID, query string, errp *error) {
	if p := recover(); p != nil {
		s.metrics.panics.Inc()
		s.logger.LogAttrs(ctx, slog.LevelError, what,
			slog.String("request_id", reqID),
			slog.String("query", query),
			slog.Any("panic", p))
		*errp = fmt.Errorf("%w: %v", errEvalPanic, p)
	}
}

// foldEvalStats adds one fresh run's work — complete or partial — to the
// aggregate /stats counters. st is nil when the run never started.
func (s *Server) foldEvalStats(st *eval.Stats) {
	if st == nil {
		return
	}
	s.subformulaEvals.Add(st.SubformulaEvals)
	s.fixIterations.Add(st.FixIterations)
	s.tuplesTouched.Add(st.TuplesTouched)
	s.repSwitches.Add(st.RepSwitches)
	s.acyclicFast.Add(st.AcyclicFastPath)
}

// trackedResult is the churn-index registration of one freshly evaluated
// result, JSON or streamed. Opts is a sanitized copy — the key-relevant
// fields only, never the live request Options, whose Tracer must not outlive
// the run. The footprint is a property of the query, so it lets results from
// ANY engine ride out disjoint deltas; maintenance state is captured by
// compiled runs only (mstate is nil when the run took a sparse route).
func trackedResult(key string, engine bvq.Engine, engineName, query string, opts *eval.Options, pl cache.Plan, mstate *eval.MaintState) *cache.Tracked {
	tracked := &cache.Tracked{
		Key:    key,
		Engine: engineName,
		Query:  query,
		Opts: &eval.Options{MaxWidth: opts.MaxWidth, Backend: opts.Backend,
			PFPBudget: opts.PFPBudget, PFPCycle: opts.PFPCycle, SparseBudget: opts.SparseBudget},
	}
	if pl.Prepared != nil && pl.Prepared.Maint != nil {
		tracked.Footprint = pl.Prepared.Maint.Rels
		if engine == bvq.EngineCompiled {
			tracked.Plan = pl.Prepared
			tracked.State = mstate
		}
	}
	return tracked
}

// retryAfterValue renders one shed response's Retry-After header: the
// configured floor plus bounded uniform jitter. A fixed value would have
// every client a front tier shed at the same instant retry at the same
// instant — the herd just moves one Retry-After into the future.
func (s *Server) retryAfterValue() string {
	v := s.retryAfterBase
	if s.retryAfterJitter > 0 {
		v += rand.Int64N(s.retryAfterJitter + 1)
	}
	return strconv.FormatInt(v, 10)
}

// evalErrorCode maps an evaluation error to its response status, applying
// the per-class side effects on the way: shed counting plus the Retry-After
// header for 429, and the timeout counter for 504 — which also carries
// Retry-After when the deadline fired while queued for a slot, since that
// 504 is overload, not evaluation cost.
func (s *Server) evalErrorCode(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, errOverloaded):
		s.metrics.shed.Inc()
		w.Header().Set("Retry-After", s.retryAfterValue())
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		if errors.Is(err, errQueueTimeout) {
			w.Header().Set("Retry-After", s.retryAfterValue())
		}
		s.timeouts.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, errEvalPanic) || errors.Is(err, cache.ErrPanicked):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// fail writes an error response and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, err error, partial *StatsJSON, reqID string) {
	s.errorsN.Add(1)
	writeJSON(w, code, ErrorResponse{Error: err.Error(), RequestID: reqID, Stats: partial})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

// StatsResponse is the /stats body.
//
// Counter semantics, pinned (see OPERATIONS.md and the regression tests):
// Errors counts every non-200 response, so it includes the 504s counted in
// Timeouts and the 429s counted in Shed — those are subsets, not disjoint
// buckets. errors − timeouts − shed approximates client-side mistakes.
type StatsResponse struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Build         BuildInfoJSON      `json:"build"`
	Databases     map[string]DBStats `json:"databases"`
	Queries       int64              `json:"queries"`
	Errors        int64              `json:"errors"`
	Timeouts      int64              `json:"timeouts"`
	Shed          int64              `json:"shed"`
	Panics        int64              `json:"panics"`
	SlowQueries   int64              `json:"slow_queries"`
	Coalesced     int64              `json:"coalesced"`
	// Streams counts /query requests answered as NDJSON streams;
	// StreamDisconnects counts those cut mid-answer by the client going
	// away (a disconnect is not an error: it is not counted in Errors).
	Streams           int64              `json:"streams"`
	StreamDisconnects int64              `json:"stream_disconnects"`
	InFlight          InFlightStats      `json:"in_flight"`
	PlanCache         CacheStats         `json:"plan_cache"`
	ResultCache       CacheStats         `json:"result_cache"`
	Churn             ChurnStats         `json:"churn"`
	Eval              AggregateEvalStats `json:"eval"`
}

// ChurnStats reports how updates and the result cache interact: per cached
// entry at each effective update, exactly one of carried / maintained /
// invalidated is counted (entries already evicted by the LRU count nowhere).
type ChurnStats struct {
	// Updates counts effective updates accepted on /db/{name}/update
	// (no-ops excluded).
	Updates int64 `json:"updates"`
	// Carried counts results rekeyed to a new snapshot untouched because
	// their dependency footprint was disjoint from the delta.
	Carried int64 `json:"carried"`
	// Maintained counts results re-derived by delta-restart maintenance
	// instead of being dropped.
	Maintained int64 `json:"maintained"`
	// Invalidated counts results dropped; the per-reason split is on
	// /metrics (bvqd_cache_invalidations_total).
	Invalidated int64 `json:"invalidated"`
}

// DBStats describes one served database snapshot.
type DBStats struct {
	DomainSize  int      `json:"domain_size"`
	Relations   []string `json:"relations"`
	Fingerprint string   `json:"fingerprint"`
	// Version counts the effective updates applied since the database was
	// loaded (0 = never updated).
	Version uint64 `json:"version"`
}

// InFlightStats are the live gauges.
type InFlightStats struct {
	// Requests counts /query requests currently being handled; Evals
	// counts evaluations actually running. Requests > Evals means
	// single-flight dedup is coalescing a thundering herd, or the
	// admission controller is queueing — Queued tells them apart.
	Requests int64 `json:"requests"`
	Evals    int64 `json:"evals"`
	Queued   int64 `json:"queued"`
}

// CacheStats reports one cache's occupancy and cumulative counters.
type CacheStats struct {
	Size      int   `json:"size"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// AggregateEvalStats accumulates engine work across all evaluations,
// including the partial work of cancelled runs. The last three fields are
// sparse-backend work: tuples written by sparse operations, hybrid-frontier
// representation conversions, and queries answered by the acyclic fast path.
type AggregateEvalStats struct {
	SubformulaEvals int64 `json:"subformula_evals"`
	FixIterations   int64 `json:"fix_iterations"`
	TuplesTouched   int64 `json:"tuples_touched"`
	RepSwitches     int64 `json:"rep_switches"`
	AcyclicFastPath int64 `json:"acyclic_fast_path"`
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() StatsResponse {
	ph, pm, pe := s.plans.Counters()
	rh, rm, re := s.results.Counters()
	dbs := make(map[string]DBStats, len(s.dbs))
	for name, nd := range s.dbs {
		snap := nd.snap.Load()
		rels := snap.db.Names()
		sort.Strings(rels)
		dbs[name] = DBStats{
			DomainSize:  snap.db.Size(),
			Relations:   rels,
			Fingerprint: fmt.Sprintf("%016x", snap.fp),
			Version:     snap.db.Version(),
		}
	}
	return StatsResponse{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Build:             buildInfo(),
		Databases:         dbs,
		Queries:           s.queries.Load(),
		Errors:            s.errorsN.Load(),
		Timeouts:          s.timeouts.Load(),
		Shed:              s.metrics.shed.Value(),
		Panics:            s.metrics.panics.Value(),
		SlowQueries:       s.metrics.slow.Value(),
		Coalesced:         s.coalesced.Load(),
		Streams:           s.streams.Load(),
		StreamDisconnects: s.streamDisconnects.Load(),
		InFlight: InFlightStats{
			Requests: s.requestsInFlight.Load(),
			Evals:    s.evalsInFlight.Load(),
			Queued:   s.limiter.queueDepth(),
		},
		PlanCache:   CacheStats{Size: s.plans.Len(), Hits: ph, Misses: pm, Evictions: pe},
		ResultCache: CacheStats{Size: s.results.Len(), Hits: rh, Misses: rm, Evictions: re},
		Churn: ChurnStats{
			Updates:     s.updates.Load(),
			Carried:     s.carriedResults.Load(),
			Maintained:  s.maintainedResults.Load(),
			Invalidated: s.invalidatedResults.Load(),
		},
		Eval: AggregateEvalStats{
			SubformulaEvals: s.subformulaEvals.Load(),
			FixIterations:   s.fixIterations.Load(),
			TuplesTouched:   s.tuplesTouched.Load(),
			RepSwitches:     s.repSwitches.Load(),
			AcyclicFastPath: s.acyclicFast.Load(),
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
