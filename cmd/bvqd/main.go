// Command bvqd serves bounded-variable query evaluation over HTTP: a
// long-running daemon that loads one or more named databases and answers
// queries with plan caching, result caching, single-flight dedup of
// concurrent identical requests, per-request deadlines enforced by
// cancellation at fixpoint-stage boundaries, admission control with
// load shedding, Prometheus metrics, and structured slow-query logs.
//
// Databases are mutable through POST /db/{name}/update: each update is an
// atomic copy-on-write snapshot transition (queries in flight keep their
// snapshot — MVCC isolation). An update does no result-cache work: a
// result key names the content of the relations its query reads, so
// answers whose footprint misses the delta stay valid under their keys, and
// the first read that misses after an update touching its footprint
// maintains the cached fixpoint by restarting it from the previous content's
// state when the delta's polarity admits it, or evaluates it fresh.
//
// Usage:
//
//	bvqd -db graph=examples/data/graph.db [-db corp=examples/data/corporate.db] \
//	     [-addr :8080] [-ordered] [-plan-cache 1024] [-result-cache 4096] \
//	     [-default-timeout 10s] [-max-timeout 60s] \
//	     [-max-concurrent 8] [-max-queue 16] [-retry-after 1s] \
//	     [-retry-after-jitter 0] [-slow-query 1s] [-pprof localhost:6060] \
//	     [-trace-buffer 256] [-trace-sample 1]
//
// Endpoints (see OPERATIONS.md for the full request/response schema):
//
//	POST /query             {"database": "graph", "query": "(x, y). exists z. E(x, z) & E(z, y)"}
//	POST /db/{name}/update  {"updates": [{"relation": "E", "insert": [[40, 10]], "delete": [[10, 20]]}]}
//	GET  /stats             JSON counters: caches, churn, in-flight gauges, aggregate work
//	GET  /metrics           Prometheus text-format metrics
//	GET  /healthz           liveness
//	GET  /version           build info (go version, VCS revision)
//	GET  /debug/traces      flight recorder: recent request traces (and /debug/traces/{id})
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for the -pprof listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/database"
	"repro/internal/serve"
	"repro/internal/server"
)

// dbFlags collects repeated -db name=path flags.
type dbFlags map[string]string

func (f dbFlags) String() string {
	var parts []string
	for k, v := range f {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (f dbFlags) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", s)
	}
	if _, dup := f[name]; dup {
		return fmt.Errorf("duplicate database name %q", name)
	}
	f[name] = path
	return nil
}

func main() {
	dbs := dbFlags{}
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		ordered        = flag.Bool("ordered", false, "augment every database with the built-in linear order (enables PTIME-complete FP queries over ordered structures)")
		planCache      = flag.Int("plan-cache", server.DefaultPlanCacheSize, "plan cache capacity in entries (negative disables)")
		resultCache    = flag.Int("result-cache", server.DefaultResultCacheSize, "result cache capacity in entries (negative disables)")
		defaultTimeout = flag.Duration("default-timeout", 10*time.Second, "evaluation deadline for requests that do not set timeout_ms (0: none)")
		maxTimeout     = flag.Duration("max-timeout", time.Minute, "upper clamp on per-request deadlines (0: none)")
		maxConcurrent  = flag.Int("max-concurrent", 0, "max evaluations running at once (0: unlimited)")
		maxQueue       = flag.Int("max-queue", 0, "max requests waiting for an evaluation slot before shedding 429 (0: 2×max-concurrent)")
		retryAfter     = flag.Duration("retry-after", time.Second, "Retry-After floor on shed responses (429, and 504s that timed out while queued)")
		retryJitter    = flag.Duration("retry-after-jitter", 0, "bounded random spread added to -retry-after per shed response (0: half of -retry-after; negative: fixed header)")
		slowQuery      = flag.Duration("slow-query", time.Second, "log requests at least this slow as JSON on stderr (0: disable)")
		pprofAddr      = flag.String("pprof", "", "serve /debug/pprof on this separate address (empty: disabled)")
		traceBuffer    = flag.Int("trace-buffer", 256, "flight-recorder ring size: keep the last N request traces for GET /debug/traces (0: disable lifecycle tracing)")
		traceSample    = flag.Int("trace-sample", 1, "record 1 in N requests into the flight recorder (1: every request)")
	)
	flag.Var(dbs, "db", "serve a database as name=path (repeatable); required")
	flag.Parse()
	cfg := server.Config{
		PlanCacheSize:      *planCache,
		ResultCacheSize:    *resultCache,
		DefaultTimeout:     *defaultTimeout,
		MaxTimeout:         *maxTimeout,
		MaxConcurrentEvals: *maxConcurrent,
		MaxEvalQueue:       *maxQueue,
		RetryAfter:         *retryAfter,
		RetryAfterJitter:   *retryJitter,
		SlowQuery:          *slowQuery,
		Logger:             slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		TraceBufferSize:    *traceBuffer,
		TraceSample:        *traceSample,
	}
	if err := run(dbs, *addr, *pprofAddr, *ordered, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bvqd:", err)
		os.Exit(1)
	}
}

func run(dbs dbFlags, addr, pprofAddr string, ordered bool, cfg server.Config) error {
	if len(dbs) == 0 {
		return fmt.Errorf("missing -db name=path")
	}
	loaded, err := loadDatabases(dbs, ordered)
	if err != nil {
		return err
	}
	cfg.Databases = loaded
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	for name, db := range loaded {
		log.Printf("serving %q: domain %d, relations %v", name, db.Size(), db.Names())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if pprofAddr != "" {
		// The pprof handlers live on DefaultServeMux (blank import above);
		// serving them on their own listener keeps profiling off the query
		// port, so it can be bound to localhost while /query is public.
		if _, err := serve.Listen(pprofAddr, http.DefaultServeMux); err != nil {
			log.Printf("pprof listener: %v", err)
		} else {
			log.Printf("pprof listening on %s", pprofAddr)
		}
	}
	ls, err := serve.Listen(addr, srv.Handler())
	if err != nil {
		return err
	}
	log.Printf("bvqd listening on %s", addr)
	<-ctx.Done()
	log.Printf("shutting down, draining in-flight requests")
	return ls.Shutdown()
}

// loadDatabases reads every -db file in the textual bvq.ParseDatabase
// format, optionally augmenting each with the linear order on its domain.
func loadDatabases(dbs dbFlags, ordered bool) (map[string]*database.Database, error) {
	out := make(map[string]*database.Database, len(dbs))
	for name, path := range dbs {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("loading %q: %w", name, err)
		}
		db, err := bvq.ParseDatabase(string(text))
		if err != nil {
			return nil, fmt.Errorf("parsing %q (%s): %w", name, path, err)
		}
		if ordered {
			db, err = db.WithOrder()
			if err != nil {
				return nil, fmt.Errorf("ordering %q: %w", name, err)
			}
		}
		out[name] = db
	}
	return out, nil
}
