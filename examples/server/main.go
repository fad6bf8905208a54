// Serving walkthrough: drive bvqd's HTTP API through its three behaviors —
// result caching, single-flight coalescing of concurrent identical
// requests, and deadline cancellation with partial statistics.
//
// Self-contained by default (starts an in-process server over
// examples/data-style databases); point it at a running daemon with
//
//	go run ./cmd/bvqd -db graph=examples/data/graph.db -ordered &
//	go run ./examples/server -addr localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/database"
	"repro/internal/serve"
	"repro/internal/server"
)

var addr = flag.String("addr", "", "host:port of a running bvqd (empty: start in-process)")

func main() {
	flag.Parse()
	base := *addr
	if base == "" {
		base = startInProcess()
	}
	base = "http://" + base

	fmt.Println("== 1. Cold query, then a cache hit")
	two := map[string]any{
		"database": "graph",
		"query":    "(x, y). exists z. E(x, z) & E(z, y)",
	}
	for i := 0; i < 2; i++ {
		r := post(base, two)
		fmt.Printf("   answer=%v plan_cached=%v result_cached=%v\n",
			r["answer"], r["plan_cached"], r["result_cached"])
	}

	fmt.Println("== 2. Eight concurrent identical slow queries coalesce onto one evaluation")
	// The binary-counter PFP query: 2^14 stages over the 14-element ordered
	// domain — slow enough that concurrent requests pile onto the leader.
	slow := map[string]any{
		"database": "counter",
		"query": "(x). [pfp S(x). (!S(x) & forall y. (Less(y, x) -> (exists x. x = y & S(x)))) | " +
			"(S(x) & exists y. (Less(y, x) & !(exists x. x = y & S(x))))](x)",
	}
	var wg sync.WaitGroup
	coalesced := 0
	var mu sync.Mutex
	start := time.Now()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := post(base, slow)
			mu.Lock()
			if r["coalesced"] == true || r["result_cached"] == true {
				coalesced++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Printf("   8 requests, %d served by another's evaluation, wall time %v\n",
		coalesced, time.Since(start).Round(time.Millisecond))

	fmt.Println("== 3. A deadline cancels mid-fixpoint: 504 with partial stats")
	slow["database"] = "bigcounter" // 2^18 stages: seconds of work
	slow["timeout_ms"] = 50
	slow["no_cache"] = true
	status, body := postRaw(base, slow)
	var errResp struct {
		Error string `json:"error"`
		Stats struct {
			FixIterations int64 `json:"fix_iterations"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &errResp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   status=%d error=%q\n   fixpoint iterations completed before the deadline: %d\n",
		status, errResp.Error, errResp.Stats.FixIterations)

	fmt.Println("== 4. The counters after all of the above")
	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	for _, k := range []string{"queries", "timeouts", "coalesced", "plan_cache", "result_cache"} {
		fmt.Printf("   %-13s %v\n", k, stats[k])
	}
}

// startInProcess builds the same databases `make serve` loads, plus two
// ordered counter domains, and serves them from this process.
func startInProcess() string {
	graph, err := bvq.ParseDatabase(`
domain = {10, 20, 30, 40, 50, 60}
E/2 = {(10, 20), (20, 30), (30, 40), (40, 50), (50, 60), (20, 50)}
P/1 = {(10)}
`)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Databases: map[string]*database.Database{
			"graph":      graph,
			"counter":    orderedDomain(14),
			"bigcounter": orderedDomain(18),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ls, err := serve.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("in-process server at", ls.URL)
	return ls.URL[len("http://"):]
}

func orderedDomain(n int) *database.Database {
	b := database.NewBuilder()
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	db, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	odb, err := db.WithOrder()
	if err != nil {
		log.Fatal(err)
	}
	return odb
}

func post(base string, req map[string]any) map[string]any {
	status, body := postRaw(base, req)
	if status != http.StatusOK {
		log.Fatalf("POST /query: %d %s", status, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		log.Fatal(err)
	}
	return out
}

func postRaw(base string, req map[string]any) (int, []byte) {
	payload, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode, body
}
