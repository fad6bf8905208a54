// Command bvqrouter fronts a fleet of bvqd replicas: it consistent-hashes
// (database, query) across the fleet so repeated queries hit warm replica
// caches, forwards /query in both JSON and NDJSON streaming form, fans
// /db/{name}/update out to every healthy replica, scatter-gathers /stats
// and /metrics into fleet aggregates, and turns the single-node admission
// contract into fleet behavior: 429+Retry-After sheds park the shedding
// replica and retry the next one, and failed replicas are evicted from the
// ring by health probes (and readmitted when they recover).
//
// Usage:
//
//	bvqrouter -replica http://127.0.0.1:8081 -replica http://127.0.0.1:8082 \
//	          [-addr :8080] [-retries 1] [-health-interval 1s] [-health-failures 2]
//
// Endpoints mirror bvqd (see OPERATIONS.md, "Running a fleet"):
//
//	POST /query             routed to the key's replica, with retry/backoff
//	POST /db/{name}/update  fanned out to every healthy replica
//	GET  /stats             fleet aggregate + per-replica stats + router counters
//	GET  /metrics           bvqrouter_* families + summed bvqd_* families
//	GET  /healthz           200 while at least one replica serves
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
)

type replicaFlags []string

func (f *replicaFlags) String() string { return fmt.Sprint([]string(*f)) }

func (f *replicaFlags) Set(s string) error {
	if s == "" {
		return fmt.Errorf("empty replica URL")
	}
	*f = append(*f, s)
	return nil
}

func main() {
	var replicas replicaFlags
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		retries        = flag.Int("retries", 1, "extra passes over the preference list when every replica sheds")
		healthInterval = flag.Duration("health-interval", time.Second, "replica /healthz probe period (0: probes disabled)")
		healthFailures = flag.Int("health-failures", 2, "consecutive probe failures before evicting a replica")
	)
	flag.Var(&replicas, "replica", "bvqd replica base URL (repeatable); at least one required")
	flag.Parse()

	rt, err := router.New(router.Config{
		Replicas:       replicas,
		Retries:        *retries,
		HealthInterval: *healthInterval,
		HealthFailures: *healthFailures,
		Logger:         slog.New(slog.NewJSONHandler(os.Stderr, nil)),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bvqrouter:", err)
		os.Exit(1)
	}
	defer rt.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ls, err := serve.Listen(*addr, rt.Handler())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bvqrouter:", err)
		os.Exit(1)
	}
	log.Printf("bvqrouter listening on %s, %d replicas", *addr, len(replicas))
	<-ctx.Done()
	log.Printf("shutting down, draining in-flight requests")
	if err := ls.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "bvqrouter: shutdown:", err)
		os.Exit(1)
	}
}
