package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/serve"
)

// graphDB is the four-element path 10→20→30→40 with P = {10}.
func graphDB(t testing.TB) *database.Database {
	t.Helper()
	db, err := database.Parse(`
domain = {10, 20, 30, 40}
E/2 = {(10, 20), (20, 30), (30, 40)}
P/1 = {(10)}
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// orderedDB is an n-element ordered domain with no other relations — the
// substrate of the exponentially long binary-counter PFP run.
func orderedDB(t testing.TB, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder()
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	odb, err := db.WithOrder()
	if err != nil {
		t.Fatal(err)
	}
	return odb
}

// counterText is the binary-increment PFP query: 2^n stages over an
// n-element ordered domain, the canonical slow query.
const counterText = `(x). [pfp S(x). (!S(x) & forall y. (Less(y, x) -> (exists x. x = y & S(x)))) | (S(x) & exists y. (Less(y, x) & !(exists x. x = y & S(x))))](x)`

const twoHop = "(x, y). exists z. E(x, z) & E(z, y)"

// serveLoop serves h on a loopback port, on the connection loop the daemons
// run, until the test ends.
func serveLoop(t testing.TB, h http.Handler) *serve.Server {
	t.Helper()
	ls, err := serve.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	return ls
}

func newTestServer(t testing.TB, cfg Config) (*Server, *serve.Server) {
	t.Helper()
	if cfg.Databases == nil {
		cfg.Databases = map[string]*database.Database{"graph": graphDB(t)}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, serveLoop(t, s.Handler())
}

// resultKey is the result-cache key resolve mints for req against db.
func resultKey(t testing.TB, db *database.Database, req QueryRequest) string {
	t.Helper()
	q, err := parser.ParseQuery(req.Query)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := eval.BackendByName(req.Backend)
	if err != nil {
		t.Fatal(err)
	}
	engine := req.Engine
	if engine == "" {
		engine = "compiled"
	}
	return cache.ResultKey(db.ContentID(logic.Footprint(q.Body)), engine, &eval.Options{Backend: backend}, req.Query)
}

func postQuery(t testing.TB, ts *serve.Server, req QueryRequest) (int, QueryResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := postRaw(t, ts, body)
	var ok QueryResponse
	var bad ErrorResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	return code, ok, bad
}

func postRaw(t testing.TB, ts *serve.Server, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getStats(t testing.TB, ts *serve.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestQueryBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop})
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Width != 3 || resp.Arity != 2 || resp.Count != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	want := [][]int{{10, 30}, {20, 40}}
	if fmt.Sprint(resp.Answer) != fmt.Sprint(want) {
		t.Fatalf("answer = %v, want %v", resp.Answer, want)
	}
	if resp.PlanCached || resp.ResultCached || resp.Coalesced {
		t.Fatalf("first request claims caching: %+v", resp)
	}
	if resp.Stats == nil || resp.Stats.SubformulaEvals == 0 {
		t.Fatalf("missing stats: %+v", resp.Stats)
	}
}

func TestQueryIndicesAndBoolean(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: "(). exists x. P(x)"})
	if code != http.StatusOK || resp.Truth == nil || !*resp.Truth {
		t.Fatalf("boolean resp = %+v (code %d)", resp, code)
	}
}

// TestCacheCounters drives the same query three ways and watches the
// counters: a cold request misses both caches, a repeat hits both and does
// no re-parse and no re-evaluation (the aggregate eval counter is frozen),
// and a no_cache request evaluates fresh without polluting the cache.
func TestCacheCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := QueryRequest{Database: "graph", Query: twoHop}

	_, first, _ := postQuery(t, ts, req)
	if first.PlanCached || first.ResultCached {
		t.Fatalf("cold request cached: %+v", first)
	}
	st := getStats(t, ts)
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != 0 {
		t.Fatalf("plan counters after miss: %+v", st.PlanCache)
	}
	if st.ResultCache.Misses != 1 || st.ResultCache.Hits != 0 {
		t.Fatalf("result counters after miss: %+v", st.ResultCache)
	}
	evalWork := st.Eval.SubformulaEvals
	if evalWork == 0 {
		t.Fatal("no eval work recorded")
	}

	_, second, _ := postQuery(t, ts, req)
	if !second.PlanCached || !second.ResultCached {
		t.Fatalf("repeat request not cached: %+v", second)
	}
	if fmt.Sprint(second.Answer) != fmt.Sprint(first.Answer) {
		t.Fatalf("cached answer differs: %v vs %v", second.Answer, first.Answer)
	}
	st = getStats(t, ts)
	if st.PlanCache.Hits != 1 || st.ResultCache.Hits != 1 {
		t.Fatalf("hit counters: plan %+v result %+v", st.PlanCache, st.ResultCache)
	}
	if st.Eval.SubformulaEvals != evalWork {
		t.Fatalf("cache hit re-evaluated: %d -> %d", evalWork, st.Eval.SubformulaEvals)
	}

	_, third, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true})
	if third.ResultCached {
		t.Fatalf("no_cache request served from cache: %+v", third)
	}
	st = getStats(t, ts)
	if st.Eval.SubformulaEvals <= evalWork {
		t.Fatal("no_cache request did not evaluate")
	}
	if fmt.Sprint(third.Answer) != fmt.Sprint(first.Answer) {
		t.Fatalf("no_cache answer differs")
	}
}

// TestDeterministicAcrossCacheModes replays a battery of queries against a
// caching server (twice, to cover the hit path) and a cache-disabled server
// and requires byte-identical answer sections.
func TestDeterministicAcrossCacheModes(t *testing.T) {
	queries := []string{
		twoHop,
		"(x). P(x)",
		"(). exists x. P(x)",
		"(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)",
		"(u). [pfp S(x). S(x) | P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)",
	}
	_, cached := newTestServer(t, Config{})
	_, uncached := newTestServer(t, Config{PlanCacheSize: -1, ResultCacheSize: -1})
	render := func(resp QueryResponse) string {
		truth := "-"
		if resp.Truth != nil {
			truth = fmt.Sprint(*resp.Truth)
		}
		return fmt.Sprintf("%v|%s|%d", resp.Answer, truth, resp.Count)
	}
	for _, q := range queries {
		answers := make([]string, 0, 3)
		for i := 0; i < 2; i++ {
			code, resp, errResp := postQuery(t, cached, QueryRequest{Database: "graph", Query: q})
			if code != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", q, code, errResp.Error)
			}
			answers = append(answers, render(resp))
		}
		code, resp, errResp := postQuery(t, uncached, QueryRequest{Database: "graph", Query: q})
		if code != http.StatusOK {
			t.Fatalf("%s: uncached status %d (%s)", q, code, errResp.Error)
		}
		answers = append(answers, render(resp))
		if answers[0] != answers[1] || answers[0] != answers[2] {
			t.Fatalf("%s: answers diverge across cache modes: %v", q, answers)
		}
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name    string
		req     QueryRequest
		want    int
		mention string // what the error message must name, if anything
	}{
		{"bad query text", QueryRequest{Database: "graph", Query: "(x). Nope("}, http.StatusBadRequest, ""},
		{"unknown database", QueryRequest{Database: "nope", Query: twoHop}, http.StatusNotFound, ""},
		{"unknown engine", QueryRequest{Database: "graph", Query: twoHop, Engine: "bottomup"}, http.StatusBadRequest, "compiled"},
		{"unknown relation", QueryRequest{Database: "graph", Query: "(x). Zap(x)"}, http.StatusUnprocessableEntity, ""},
		{"outside the compilable fragment", QueryRequest{Database: "graph", Query: "(). exists2 C/1. forall x. C(x)"}, http.StatusUnprocessableEntity, "plan: "},
	}
	for _, c := range cases {
		code, _, errResp := postQuery(t, ts, c.req)
		if code != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, code, c.want)
		}
		if errResp.Error == "" || !strings.Contains(errResp.Error, c.mention) {
			t.Errorf("%s: error %q does not name %q", c.name, errResp.Error, c.mention)
		}
	}
	// Not JSON at all.
	if code, _ := postRaw(t, ts, []byte("not json")); code != http.StatusBadRequest {
		t.Errorf("non-JSON body: status = %d", code)
	}
	// Unknown fields are rejected (schema discipline), the fields bvqd no
	// longer has among them, with a message naming the field.
	for _, field := range []string{"trace", "parallelism", "indices", "max_width"} {
		code, raw := postRaw(t, ts, []byte(`{"database":"graph","query":"(x). P(x)","`+field+`":1}`))
		var bad ErrorResponse
		if err := json.Unmarshal(raw, &bad); err != nil || code != http.StatusBadRequest || !strings.Contains(bad.Error, `"`+field+`"`) {
			t.Errorf("unknown field %s: status %d, body %s", field, code, raw)
		}
	}
	st := getStats(t, ts)
	if st.Errors == 0 {
		t.Error("error counter not incremented")
	}
}

// TestDeadlineReturns504 sends a run far longer than its deadline, the
// 2^16-stage counter: the server must answer 504 well before the full run
// would finish, carrying the partial iteration count the engine had reached,
// with the evaluation slot given back.
func TestDeadlineReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{Databases: map[string]*database.Database{
		"ord": orderedDB(t, 16),
	}})
	start := time.Now()
	code, _, errResp := postQuery(t, ts, QueryRequest{Database: "ord", Query: counterText, TimeoutMS: 50})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s)", code, errResp.Error)
	}
	if errResp.Stats == nil || errResp.Stats.FixIterations == 0 {
		t.Fatalf("missing partial stats: %+v", errResp.Stats)
	}
	// The full run takes ~500ms; cancellation at a stage boundary must come
	// back far sooner (generous bound for loaded CI machines).
	if elapsed > 5*time.Second {
		t.Fatalf("504 took %v", elapsed)
	}
	st := getStats(t, ts)
	if st.Timeouts != 1 {
		t.Fatalf("timeout counter = %d", st.Timeouts)
	}
	if st.InFlight.Evals != 0 {
		t.Fatalf("%d evaluation slots still held after the 504", st.InFlight.Evals)
	}
	if st.Eval.FixIterations == 0 {
		t.Fatal("partial work not folded into aggregate counters")
	}
}

// TestServerMaxTimeoutClamp: a request asking for a huge deadline is clamped
// to the server maximum.
func TestServerMaxTimeoutClamp(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Databases:  map[string]*database.Database{"ord": orderedDB(t, 16)},
		MaxTimeout: 50 * time.Millisecond,
	})
	code, _, _ := postQuery(t, ts, QueryRequest{Database: "ord", Query: counterText, TimeoutMS: 600_000})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (clamped deadline)", code)
	}
}

// TestSingleFlightCoalesces starts one slow evaluation, then piles seven
// identical requests on top of it and observes through the in-flight gauges
// that they coalesce: requests stack up while exactly one evaluation runs,
// and every late request is served from the leader's run.
func TestSingleFlightCoalesces(t *testing.T) {
	s, ts := newTestServer(t, Config{Databases: map[string]*database.Database{
		"ord": orderedDB(t, 16),
	}})
	req := QueryRequest{Database: "ord", Query: counterText}

	type result struct {
		code int
		resp QueryResponse
	}
	results := make(chan result, 8)
	var wg sync.WaitGroup
	launch := func() {
		defer wg.Done()
		code, resp, _ := postQuery(t, ts, req)
		results <- result{code, resp}
	}
	wg.Add(1)
	go launch()
	// Wait for the leader to be inside its evaluation.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().InFlight.Evals == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started evaluating")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go launch()
	}
	// While the followers wait on the leader, the gauges must show the
	// pile-up: several requests in flight, exactly one evaluation.
	observed := false
	for !observed && time.Now().Before(deadline) {
		st := s.Stats()
		if st.InFlight.Requests >= 2 && st.InFlight.Evals == 1 {
			observed = true
		}
		if st.InFlight.Evals > 1 {
			t.Fatalf("dedup failed: %d evaluations in flight", st.InFlight.Evals)
		}
		time.Sleep(time.Millisecond)
	}
	if !observed {
		t.Fatal("never observed coalesced pile-up in the gauges")
	}
	wg.Wait()
	close(results)

	var leaders, followers int
	var answers []string
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("status = %d", r.code)
		}
		if r.resp.Coalesced {
			followers++
		} else {
			leaders++
		}
		answers = append(answers, fmt.Sprint(r.resp.Answer))
	}
	if leaders < 1 || leaders+followers < 8 {
		t.Fatalf("leaders = %d, followers = %d", leaders, followers)
	}
	if followers == 0 {
		t.Fatal("no request was coalesced")
	}
	for _, a := range answers[1:] {
		if a != answers[0] {
			t.Fatalf("coalesced answers differ: %v", answers)
		}
	}
	if st := s.Stats(); st.Coalesced == 0 {
		t.Fatal("coalesced counter not incremented")
	}
}

// TestConcurrentHammer fires 8 goroutines × 20 mixed requests at the
// server; meaningful under -race (make check runs it so). Every answer must
// match the expected value for its query regardless of interleaving.
func TestConcurrentHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want := map[string]string{
		twoHop:      "[[10 30] [20 40]]",
		"(x). P(x)": "[[10]]",
		"(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)": "[[10] [20] [30] [40]]",
	}
	queries := make([]string, 0, len(want))
	for q := range want {
		queries = append(queries, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(g+i)%len(queries)]
				code, resp, _ := postQuery(t, ts, QueryRequest{
					Database: "graph",
					Query:    q,
					NoCache:  i%5 == 4, // mix cached and fresh paths
				})
				if code != http.StatusOK {
					t.Errorf("g%d i%d: status %d", g, i, code)
					return
				}
				if got := fmt.Sprint(resp.Answer); got != want[q] {
					t.Errorf("g%d i%d %s: answer %s, want %s", g, i, q, got, want[q])
				}
			}
		}(g)
	}
	wg.Wait()
	st := getStats(t, ts)
	if st.Queries != 160 {
		t.Fatalf("queries = %d", st.Queries)
	}
	if st.InFlight.Requests != 0 || st.InFlight.Evals != 0 {
		t.Fatalf("gauges not drained: %+v", st.InFlight)
	}
}

func TestHealthzAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	st := getStats(t, ts)
	if st.Databases["graph"].DomainSize != 4 {
		t.Fatalf("stats databases = %+v", st.Databases)
	}
	if len(st.Databases["graph"].Fingerprint) != 16 {
		t.Fatalf("fingerprint = %q", st.Databases["graph"].Fingerprint)
	}
	// GET on /query routes away (method pattern).
	getResp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d", getResp.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no databases accepted")
	}
	if _, err := New(Config{Databases: map[string]*database.Database{"": graphDB(t)}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New(Config{Databases: map[string]*database.Database{"x": nil}}); err == nil {
		t.Fatal("nil database accepted")
	}
}

// TestCompiledEngineEndToEnd drives the compiled engine through the HTTP
// surface: the answer matches bottomup, the semi-naive counters survive the
// JSON round trip, a repeat request reuses the prepared plan from the plan
// cache, and a query outside the compilable fragment surfaces the compiler's
// real error instead of a nil-plan crash.
func TestCompiledEngineEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reach := "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"

	code, base, errResp := postQuery(t, ts, QueryRequest{Database: "graph", Query: reach})
	if code != http.StatusOK {
		t.Fatalf("bottomup status %d (%s)", code, errResp.Error)
	}
	code, comp, errResp := postQuery(t, ts, QueryRequest{Database: "graph", Query: reach, Engine: "compiled"})
	if code != http.StatusOK {
		t.Fatalf("compiled status %d (%s)", code, errResp.Error)
	}
	if fmt.Sprint(comp.Answer) != fmt.Sprint(base.Answer) {
		t.Fatalf("compiled answer %v != bottomup %v", comp.Answer, base.Answer)
	}
	if !comp.PlanCached {
		t.Fatalf("second request for the same text missed the plan cache: %+v", comp)
	}
	if comp.Stats == nil || comp.Stats.NodesReused == 0 || comp.Stats.DeltaTuples == 0 {
		t.Fatalf("semi-naive counters missing from JSON stats: %+v", comp.Stats)
	}

	// Re-evaluation under no_cache still reuses the cached prepared plan and
	// reproduces the identical answer and counters.
	code, again, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: reach, Engine: "compiled", NoCache: true})
	if code != http.StatusOK || !again.PlanCached {
		t.Fatalf("no_cache compiled run: code %d resp %+v", code, again)
	}
	if fmt.Sprint(again.Answer) != fmt.Sprint(comp.Answer) || *again.Stats != *comp.Stats {
		t.Fatalf("no_cache compiled run diverged: %+v vs %+v", again, comp)
	}

	// Outside the compilable fragment (second-order quantifier): the plan
	// cache reports the compiler's error, and the request never runs.
	code, _, errResp = postQuery(t, ts, QueryRequest{
		Database: "graph", Query: "(). exists2 A/1. exists x. A(x)", Engine: "compiled"})
	if code != http.StatusUnprocessableEntity || errResp.Error == "" {
		t.Fatalf("second-order query: status %d, error %q; want 422 with the compiler's message", code, errResp.Error)
	}
}
