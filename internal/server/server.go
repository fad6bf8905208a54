// Package server implements bvqd, the long-running bounded-variable query
// service. It is the serving-shaped reading of the paper: Proposition 3.1
// makes combined complexity polynomial, so a daemon can afford to evaluate
// ad-hoc queries from many clients — and the constant-delay line of work
// (Durand–Grandjean) frames exactly this split: amortize preprocessing,
// then answer many queries cheaply. The preprocessing amortized here:
//
//   - parse + width computation and the full DAG plan (internal/plan),
//     memoized in an LRU plan cache keyed by query text;
//   - whole evaluations, memoized in an LRU result cache keyed by
//     (content of the relations the query reads, engine, options, query
//     text) — sound because a query's value is a function of that content
//     and engines are deterministic;
//   - concurrent identical requests, JSON and streamed alike, coalesced by
//     single-flight dedup so a thundering herd costs one evaluation.
//
// Every request runs the compiled engine, the plan executor; the paper's
// other algorithms are in-process exhibits and oracles (bvq -engine). Each
// request carries its own deadline, enforced by context cancellation at the
// executor's fixpoint-stage boundaries, so a timed-out request returns within
// one stage of its deadline with the partial work statistics it accumulated.
//
// Sustained traffic gets three more layers (see OPERATIONS.md):
//
//   - admission control: a configurable concurrency limit with a bounded
//     wait queue in front of evaluation; overload is answered 429 with a
//     Retry-After header instead of queueing without bound;
//   - observability: Prometheus text-format metrics on GET /metrics,
//     lifecycle traces with one span per fixpoint on GET /debug/traces,
//     and structured slow-query logs (log/slog JSON) keyed by request ID;
//   - panic containment: an evaluator panic is recovered, counted, and
//     answered 500 — it never takes down the daemon or strands coalesced
//     followers.
//
// Databases are served as MVCC snapshots: POST /db/{name}/update applies
// tuple-level inserts and deletes (database.Apply), atomically swapping in a
// new snapshot while in-flight queries finish against the old one. An update
// does no cache work: a result key names the content of the relations the
// query reads, so no update can make an entry wrong. The update records its
// step, and the first miss that needs the new content's answer resumes from
// the previous content's entry by delta-restart (eval.EvalPlan from the
// entry's state) where it can, and evaluates fresh otherwise. Neither the
// plan cache, keyed by query text alone, nor the node store, keyed by
// content, is touched (update.go).
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
	// RetryAfter is the floor of the Retry-After hint attached to shed
	// responses (429, and 504s whose deadline fired while queued), rounded
	// up to whole seconds. 0 means 1s. Each header adds a uniform spread of
	// up to half the floor (at least 1s), so a fleet of clients (or a
	// router's worth of queued retries) shed at the same instant does not
	// come back at the same instant.
	RetryAfter time.Duration
	// SlowQuery is the slow-query logging threshold: requests taking at
	// least this long are logged through Logger at warn level. 0 disables
	// slow-query logging.
	SlowQuery time.Duration
	// Logger receives structured logs (slow queries, recovered panics).
	// nil means discard.
	Logger *slog.Logger
	// TraceBufferSize enables the flight recorder: the last N finished
	// request traces are kept in memory and served on GET /debug/traces,
	// and slow, error and shed traces in an always-keep buffer of
	// max(N/4, 8) beside them. 0 disables lifecycle tracing entirely (the
	// zero-overhead default).
	TraceBufferSize int
	// TraceSample records 1 in N requests into the flight recorder (slow,
	// error and shed requests are always candidates once traced — sampling
	// decides whether a trace is built at all). 0 or 1 means every request.
	TraceSample int
}

// Cache sizing defaults. Plans are small (a compiled plan of a few kilobytes
// per distinct query text); results hold a relation each, so the default is
// sized for k ≤ 3 answers over domains of a few hundred elements — override
// per deployment, see OPERATIONS.md.
const (
	DefaultPlanCacheSize   = 1024
	DefaultResultCacheSize = 4096
	nodeCacheBytes         = 64 << 20 // the server's one eval.NodeStore; no flag until two deployments need two budgets
)

// errEvalPanic wraps a recovered evaluator panic; the handler maps it to a
// 500 response.
var errEvalPanic = errors.New("server: evaluation panicked")

// Server is the bvqd HTTP query service. Construct with New; serve
// Handler(); all methods are safe for concurrent use.
type Server struct {
	dbs      map[string]*namedDB
	plans    *cache.PlanCache
	results  *cache.ResultCache
	nodes    *eval.NodeStore // nil (tests only): no sub-plan sharing
	flight   *cache.Flight[evalOutcome]
	limiter  *limiter
	metrics  *serverMetrics
	logger   *slog.Logger
	recorder *trace.Recorder // nil: lifecycle tracing disabled
	sample   int64           // record 1 in sample requests

	defaultTimeout time.Duration
	maxTimeout     time.Duration
	slowQuery      time.Duration
	retryAfterBase int64 // Retry-After floor, whole seconds
	start          time.Time

	reqSeq atomic.Int64 // request-ID sequence

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
// (MVCC snapshot isolation, database.Apply). mu serializes updates with each
// other and nothing else. Storing a result takes no lock, because a result key
// names the content the query read and an update retires nothing: a result
// computed against a superseded snapshot is filed under that snapshot's
// content, where it is right whenever that content returns and out of reach
// until then.
type namedDB struct {
	name string
	mu   sync.Mutex
	snap atomic.Pointer[database.Database]
	// chain holds the last chainLen steps that led to snap, oldest first. It
	// is copied on write under mu, and a miss reads it to find the update
	// that last touched its footprint (lastTouch).
	chain atomic.Pointer[[]step]
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
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := &Server{
		dbs:            make(map[string]*namedDB, len(cfg.Databases)),
		plans:          cache.NewPlanCache(max(planSize, 0)),
		results:        cache.NewResultCache(max(resultSize, 0)),
		nodes:          eval.NewNodeStore(nodeCacheBytes),
		flight:         cache.NewFlight[evalOutcome](),
		limiter:        newLimiter(cfg.MaxConcurrentEvals, cfg.MaxEvalQueue),
		logger:         logger,
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     cfg.MaxTimeout,
		slowQuery:      cfg.SlowQuery,
		retryAfterBase: retryBase,
		start:          time.Now(),
		sample:         1,
	}
	if cfg.TraceSample > 1 {
		s.sample = int64(cfg.TraceSample)
	}
	if cfg.TraceBufferSize > 0 {
		s.recorder = trace.NewRecorder(cfg.TraceBufferSize, max(cfg.TraceBufferSize/4, 8))
	}
	for name, db := range cfg.Databases {
		if name == "" || db == nil {
			return nil, fmt.Errorf("server: invalid database entry %q", name)
		}
		nd := &namedDB{name: name}
		nd.snap.Store(db)
		s.dbs[name] = nd
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
				s.logger.LogAttrs(r.Context(), slog.LevelError, "handler panic",
					slog.String("path", r.URL.Path), slog.Any("panic", p))
				s.fail(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p), nil, "")
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
	// Engine is empty or compiled, the one engine bvqd serves; any other
	// name is a 400.
	Engine string `json:"engine,omitempty"`
	// Backend selects the relation representation: auto (default — the
	// cheaper route by plan.Density's cost model), dense (force the
	// full-width nᵏ bitmap engine) or sparse (force sorted tuple blocks).
	Backend string `json:"backend,omitempty"`
	// TimeoutMS is this request's evaluation deadline in milliseconds,
	// clamped to the server's maximum. 0 means the server default;
	// negative is a 400.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache and single-flight dedup: the
	// request always evaluates fresh and does not store its result.
	NoCache bool `json:"no_cache,omitempty"`
	// Stream switches the response to NDJSON (application/x-ndjson): a
	// header line, one line per answer tuple flushed as it decodes, and a
	// trailer line with the final statistics. A stream is looked up,
	// coalesced and evaluated exactly like a JSON request; only the
	// extraction differs: a LIMIT-k stream decodes k tuples, and a windowed
	// stream that had to evaluate keeps nothing in the result cache.
	Stream bool `json:"stream,omitempty"`
	// Limit caps how many answer tuples are returned (after Offset).
	// 0 means all. The JSON response's count field (and the stream
	// header's and trailer's) always reports the FULL answer cardinality,
	// not the window's size. Limit and Offset are excluded from result-cache
	// keys, so a cached full result serves any windowed request.
	Limit int `json:"limit,omitempty"`
	// Offset skips that many answer tuples (in the canonical sorted order)
	// before returning any. 0 means none.
	Offset int `json:"offset,omitempty"`
	// Explain returns the compiled plan DAG annotated with the density
	// decision, maintenance eligibility and backend route, plus per-node
	// wall time and per-binder stage counts from this run. An explained
	// request always evaluates fresh (the annotations must describe this
	// run), and still stores its result unless no_cache is also set. Not
	// supported with stream.
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
	// served: parse and compile skipped, evaluation skipped, or evaluation
	// shared with a concurrent identical request.
	PlanCached   bool `json:"plan_cached"`
	ResultCached bool `json:"result_cached"`
	Coalesced    bool `json:"coalesced"`
	// ElapsedMS is the server-side handling time of this request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Stats is the engine work of the evaluation that produced the answer
	// (the original run's, when served from cache).
	Stats *StatsJSON `json:"stats,omitempty"`
	// TraceID is the W3C trace ID of this request's lifecycle trace when the
	// flight recorder sampled it; the trace is retrievable at
	// GET /debug/traces/{id} until it ages out of the ring.
	TraceID string `json:"trace_id,omitempty"`
	// Explain is the annotated plan DAG when the request set explain.
	Explain *plan.Explain `json:"explain,omitempty"`
}

// ErrorResponse is the /query error body.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
	// Stats carries the partial work statistics of a cancelled evaluation
	// (504 only): what the engine had done when the deadline fired.
	Stats *StatsJSON `json:"stats,omitempty"`
}

// StatsJSON is the wire form of an evaluation's work statistics: eval.Stats
// itself, whose json tags are the field names.
type StatsJSON = eval.Stats

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

// foldEvalStats adds one run's work — a fresh evaluation's or a maintenance
// run's, complete or partial — to the aggregate counters. st is nil when the
// run never started.
func (s *Server) foldEvalStats(st *eval.Stats) {
	if st == nil {
		return
	}
	s.metrics.subformulaEvals.Add(st.SubformulaEvals)
	s.metrics.fixIterations.Add(st.FixIterations)
	s.metrics.tuplesTouched.Add(st.TuplesTouched)
	s.metrics.repSwitches.Add(st.RepSwitches)
	s.metrics.acyclicFast.Add(st.AcyclicFastPath)
}

// retryAfterValue renders one shed response's Retry-After header: the
// configured floor plus a uniform spread of up to half of it (at least 1s).
// A fixed value would have every client a front tier shed at the same
// instant retry at the same instant — the herd just moves one Retry-After
// into the future.
func (s *Server) retryAfterValue() string {
	v := s.retryAfterBase
	return strconv.FormatInt(v+rand.Int64N(max(v/2, 1)+1), 10)
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
		s.metrics.timeouts.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, errEvalPanic) || errors.Is(err, cache.ErrPanicked):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// bodyErrorStatus is the status of a request body that failed to decode:
// 413 when it ran over its cap, 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// fail writes an error response and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, err error, partial *StatsJSON, reqID string) {
	s.metrics.errors.Inc()
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
	Streams           int64               `json:"streams"`
	StreamDisconnects int64               `json:"stream_disconnects"`
	InFlight          InFlightStats       `json:"in_flight"`
	PlanCache         CacheStats          `json:"plan_cache"`
	ResultCache       CacheStats          `json:"result_cache"`
	NodeCache         eval.NodeStoreStats `json:"node_cache"`
	Churn             ChurnStats          `json:"churn"`
	Eval              AggregateEvalStats  `json:"eval"`
}

// ChurnStats reports updates and how the result-cache misses after them were
// answered. A miss whose footprint an update in the chain touched, and whose
// answer for the content before that update is still cached, is counted once:
// maintained when delta-restart resumed from that entry, invalidated when it
// could not and the miss evaluated fresh. Any other miss counts nowhere.
type ChurnStats struct {
	// Updates counts effective updates accepted on /db/{name}/update
	// (no-ops excluded).
	Updates int64 `json:"updates"`
	// Maintained counts misses answered by delta-restart maintenance.
	Maintained int64 `json:"maintained"`
	// Invalidated counts misses whose previous entry could not be resumed
	// from; the per-reason split is on /metrics
	// (bvqd_cache_invalidations_total).
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
// tuples written by sparse operations, evaluations moved to the other backend
// (hand-offs, budget reruns), and runs of plans lowered from a region the
// compiler scoped narrower than written (eval.Stats.AcyclicFastPath).
type AggregateEvalStats struct {
	SubformulaEvals int64 `json:"subformula_evals"`
	FixIterations   int64 `json:"fix_iterations"`
	TuplesTouched   int64 `json:"tuples_touched"`
	RepSwitches     int64 `json:"rep_switches"`
	AcyclicFastPath int64 `json:"acyclic_fast_path"`
}

// Stats returns a snapshot of the server's counters, read from the same
// registry instruments /metrics renders.
func (s *Server) Stats() StatsResponse {
	m := s.metrics
	ph, pm, pe := s.plans.Counters()
	rh, rm, re := s.results.Counters()
	dbs := make(map[string]DBStats, len(s.dbs))
	for name, nd := range s.dbs {
		snap := nd.snap.Load()
		rels := snap.Names()
		sort.Strings(rels)
		dbs[name] = DBStats{
			DomainSize:  snap.Size(),
			Relations:   rels,
			Fingerprint: fmt.Sprintf("%016x", snap.Fingerprint()),
			Version:     snap.Version(),
		}
	}
	return StatsResponse{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Build:             buildInfo(),
		Databases:         dbs,
		Queries:           m.queries.Value(),
		Errors:            m.errors.Value(),
		Timeouts:          m.timeouts.Value(),
		Shed:              m.shed.Value(),
		Panics:            m.panics.Value(),
		SlowQueries:       m.slow.Value(),
		Coalesced:         m.coalesced.Value(),
		Streams:           m.streams.Value(),
		StreamDisconnects: m.streamDisconnects.Value(),
		InFlight: InFlightStats{
			Requests: m.requestsInFlight.Value(),
			Evals:    m.evalsInFlight.Value(),
			Queued:   s.limiter.queueDepth(),
		},
		PlanCache:   CacheStats{Size: s.plans.Len(), Hits: ph, Misses: pm, Evictions: pe},
		ResultCache: CacheStats{Size: s.results.Len(), Hits: rh, Misses: rm, Evictions: re},
		NodeCache:   s.nodes.Stats(),
		Churn: ChurnStats{
			Updates:     m.updates.Value(),
			Maintained:  m.maintained.Value(),
			Invalidated: m.invalidations.Sum(),
		},
		Eval: AggregateEvalStats{
			SubformulaEvals: m.subformulaEvals.Value(),
			FixIterations:   m.fixIterations.Value(),
			TuplesTouched:   m.tuplesTouched.Value(),
			RepSwitches:     m.repSwitches.Value(),
			AcyclicFastPath: m.acyclicFast.Value(),
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
