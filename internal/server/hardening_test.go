package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// hookedServer is newTestServer with the test hook installed before the
// listener starts, so the hook write is race-free with handler reads.
func hookedServer(t testing.TB, cfg Config, hook func()) (*Server, *serve.Server) {
	t.Helper()
	if cfg.Databases == nil {
		cfg.Databases = map[string]*database.Database{"graph": graphDB(t)}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.testHookBeforeEval = hook
	return s, serveLoop(t, s.Handler())
}

// postFull posts a query and returns the full response for header checks.
func postFull(t testing.TB, ts *serve.Server, req QueryRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestWireFieldValidation locks the 400 responses for out-of-range numeric
// wire fields: the message must name the offending field so clients can fix
// the right knob.
func TestWireFieldValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name  string
		req   QueryRequest
		field string
	}{
		{"negative timeout_ms", QueryRequest{Database: "graph", Query: twoHop, TimeoutMS: -50}, "timeout_ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, errResp := postQuery(t, ts, c.req)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", code)
			}
			if !strings.Contains(errResp.Error, c.field) {
				t.Fatalf("error %q does not name field %q", errResp.Error, c.field)
			}
			if errResp.RequestID == "" {
				t.Fatal("error body missing request_id")
			}
		})
	}
	// The zero values stay valid (0 means "default"/"unbounded", see the
	// QueryRequest docs) — a regression here would break every client that
	// omits the fields.
	code, _, errResp := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop})
	if code != http.StatusOK {
		t.Fatalf("zero-valued fields rejected: %d (%s)", code, errResp.Error)
	}
}

// TestTimeoutCountsAsErrorAndTimeout pins the /stats counter semantics: a
// 504 increments both timeouts and errors — errors counts every non-200 and
// timeouts is a subset, not a disjoint bucket. Deliberate; see OPERATIONS.md.
func TestTimeoutCountsAsErrorAndTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Databases: map[string]*database.Database{
		"ord": orderedDB(t, 16),
	}})
	code, _, _ := postQuery(t, ts, QueryRequest{Database: "ord", Query: counterText, TimeoutMS: 50})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	st := getStats(t, ts)
	if st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
	if st.Errors != 1 {
		t.Fatalf("errors = %d, want 1 (504 must count as an error too)", st.Errors)
	}
}

// TestMetricsEndpoint drives a few requests through the server and checks
// that GET /metrics serves parseable Prometheus text format covering the
// instrument families OPERATIONS.md promises, with values that agree with
// the JSON /stats counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop})
	postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop}) // result-cache hit
	postQuery(t, ts, QueryRequest{Database: "nope", Query: twoHop})  // 404

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition format invalid: %v", err)
	}
	byName := make(map[string]metrics.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	wantType := map[string]string{
		"bvqd_query_latency_seconds":     "histogram",
		"bvqd_queries_total":             "counter",
		"bvqd_errors_total":              "counter",
		"bvqd_timeouts_total":            "counter",
		"bvqd_coalesced_total":           "counter",
		"bvqd_shed_total":                "counter",
		"bvqd_panics_recovered_total":    "counter",
		"bvqd_plan_cache_hits_total":     "counter",
		"bvqd_result_cache_hits_total":   "counter",
		"bvqd_requests_in_flight":        "gauge",
		"bvqd_evals_in_flight":           "gauge",
		"bvqd_queue_depth":               "gauge",
		"bvqd_eval_fix_iterations_total": "counter",
	}
	for name, typ := range wantType {
		f, ok := byName[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("%s type = %s, want %s", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("%s has no HELP text", name)
		}
	}
	value := func(name string) float64 {
		for _, sm := range byName[name].Samples {
			if sm.Name == name {
				return sm.Value
			}
		}
		t.Fatalf("no sample for %s", name)
		return 0
	}
	st := getStats(t, ts)
	if got := value("bvqd_queries_total"); got != float64(st.Queries) {
		t.Errorf("bvqd_queries_total = %v, /stats queries = %d", got, st.Queries)
	}
	if got := value("bvqd_errors_total"); got != float64(st.Errors) {
		t.Errorf("bvqd_errors_total = %v, /stats errors = %d", got, st.Errors)
	}
	if got := value("bvqd_result_cache_hits_total"); got != float64(st.ResultCache.Hits) {
		t.Errorf("bvqd_result_cache_hits_total = %v, /stats hits = %d", got, st.ResultCache.Hits)
	}
	// The latency histogram observes every /query request: the two served
	// ones under their engine label, the 404 (rejected before engine
	// resolution) under "unknown". Totals must add up across labels.
	var count, compiled float64
	for _, sm := range byName["bvqd_query_latency_seconds"].Samples {
		if sm.Name == "bvqd_query_latency_seconds_count" {
			count += sm.Value
			if sm.Labels["engine"] == "compiled" {
				compiled += sm.Value
			}
		}
	}
	if count != float64(st.Queries) {
		t.Errorf("latency observations = %v, queries = %d", count, st.Queries)
	}
	if compiled != 2 {
		t.Errorf("compiled observations = %v, want 2", compiled)
	}
}

// TestBogusEnginesLabelledUnknown: engine names a client makes up do not
// become label values. After 200 distinct ones the latency family holds the
// engine that served and "unknown", nothing else.
func TestBogusEnginesLabelledUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, Engine: "compiled"})
	for i := 0; i < 200; i++ {
		postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, Engine: "warp" + strconv.Itoa(i)})
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == "bvqd_query_latency_seconds_count" {
				counts[s.Labels["engine"]] = s.Value
			}
		}
	}
	if len(counts) != 2 || counts["compiled"] != 1 || counts["unknown"] != 200 {
		t.Fatalf("latency observations by engine %v, want compiled 1 and unknown 200", counts)
	}
}

// TestSaturationSheds429 is the overload drill: one evaluation slot, a
// one-deep wait queue, and six simultaneous uncacheable requests while the
// only slot is wedged open. The excess must shed with 429 + Retry-After,
// the admitted requests must complete 200 once the slot opens, and every
// gauge must drain — no stranded waiters. Meaningful under -race.
func TestSaturationSheds429(t *testing.T) {
	gate := make(chan struct{})
	s, ts := hookedServer(t, Config{
		MaxConcurrentEvals: 1,
		MaxEvalQueue:       1,
		RetryAfter:         2 * time.Second,
	}, func() { <-gate })

	const total = 6
	codes := make(chan int, total)
	retryAfter := make(chan string, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postFull(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true})
			resp.Body.Close()
			codes <- resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter <- resp.Header.Get("Retry-After")
			}
		}()
	}
	// With the slot wedged, exactly one request runs and one queues; the
	// other four shed immediately. Wait for those 429s before opening the
	// gate, so the admitted pair demonstrably survived saturation.
	shed := 0
	deadline := time.After(10 * time.Second)
	for shed < total-2 {
		select {
		case got := <-codes:
			if got != http.StatusTooManyRequests {
				t.Fatalf("pre-gate response %d, want 429", got)
			}
			shed++
		case <-deadline:
			t.Fatalf("only %d requests shed; queue not bounding", shed)
		}
	}
	close(gate)
	wg.Wait()
	close(codes)
	close(retryAfter)
	for got := range codes {
		if got != http.StatusOK {
			t.Fatalf("post-gate response %d, want 200", got)
		}
	}
	for ra := range retryAfter {
		// RetryAfter 2s with default jitter (half the base): values land in
		// [2, 3] seconds.
		v, err := strconv.Atoi(ra)
		if err != nil || v < 2 || v > 3 {
			t.Fatalf("Retry-After = %q, want an integer in [2, 3]", ra)
		}
	}
	st := s.Stats()
	if st.Shed != total-2 {
		t.Fatalf("shed counter = %d, want %d", st.Shed, total-2)
	}
	if st.Errors < st.Shed {
		t.Fatalf("errors = %d < shed = %d (429 must count as an error)", st.Errors, st.Shed)
	}
	if st.InFlight.Requests != 0 || st.InFlight.Evals != 0 || st.InFlight.Queued != 0 {
		t.Fatalf("gauges not drained: %+v", st.InFlight)
	}
}

// TestRejectedTextSkipsAdmission: a text the compiler rejects is answered 422
// with the compiler's own message from the plan cache, at once, while the only
// evaluation slot is held: it reads no result cache and waits for no slot.
func TestRejectedTextSkipsAdmission(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	s, ts := hookedServer(t, Config{MaxConcurrentEvals: 1}, func() {
		entered <- struct{}{}
		<-gate
	})
	holder := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"database":"graph","query":"`+twoHop+`","no_cache":true}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slot holder: status %d", resp.StatusCode)
			}
		}
		holder <- err
	}()
	<-entered
	before := s.Stats()
	code, _, errResp := postQuery(t, ts, QueryRequest{Database: "graph", Query: "(). exists2 C/1. forall x. C(x)", TimeoutMS: 2000})
	after := s.Stats()
	close(gate)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if want := "plan: second-order quantifier C is not compilable; use the eso package"; code != http.StatusUnprocessableEntity || errResp.Error != want {
		t.Fatalf("status %d, error %q; want 422 and %q", code, errResp.Error, want)
	}
	if after.ResultCache.Misses != before.ResultCache.Misses || after.InFlight.Evals != before.InFlight.Evals {
		t.Fatalf("result-cache misses %d → %d, evals in flight %d → %d: the rejected text went past the plan cache",
			before.ResultCache.Misses, after.ResultCache.Misses, before.InFlight.Evals, after.InFlight.Evals)
	}
}

// TestEvaluatorPanicIsContained injects a panic at the evaluation boundary
// and checks both paths: a direct (no_cache) request and a coalesced pair
// all answer 500 with the panic surfaced in the error, the panic counter
// increments, no gauge leaks, and the server keeps serving afterwards.
func TestEvaluatorPanicIsContained(t *testing.T) {
	var explode atomic.Bool
	s, ts := hookedServer(t, Config{}, func() {
		if explode.Load() {
			panic("synthetic evaluator bug")
		}
	})

	explode.Store(true)
	code, _, errResp := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true})
	if code != http.StatusInternalServerError {
		t.Fatalf("direct panic path: status = %d, want 500", code)
	}
	if !strings.Contains(errResp.Error, "panic") || !strings.Contains(errResp.Error, "synthetic evaluator bug") {
		t.Fatalf("panic not surfaced: %q", errResp.Error)
	}

	// Coalesced path: both the leader and a follower of the same key get the
	// recovered error, and nobody hangs.
	var wg sync.WaitGroup
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop})
			results <- code
		}()
	}
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusInternalServerError {
			t.Fatalf("coalesced panic path: status = %d, want 500", code)
		}
	}

	st := s.Stats()
	if st.Panics == 0 {
		t.Fatal("panic counter not incremented")
	}
	if st.InFlight.Requests != 0 || st.InFlight.Evals != 0 {
		t.Fatalf("gauges leaked by panic: %+v", st.InFlight)
	}

	// Recovery is per-request: with the fault cleared the same key serves.
	explode.Store(false)
	code, resp, errResp := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop})
	if code != http.StatusOK {
		t.Fatalf("post-panic request: status = %d (%s)", code, errResp.Error)
	}
	if resp.Count != 2 {
		t.Fatalf("post-panic answer wrong: %+v", resp)
	}
}

// TestRequestIDs checks that every response — success or error — carries a
// request ID in both the header and the body, and that IDs differ between
// requests.
func TestRequestIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r1 := postFull(t, ts, QueryRequest{Database: "graph", Query: twoHop})
	defer r1.Body.Close()
	var ok QueryResponse
	if err := json.NewDecoder(r1.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	h1 := r1.Header.Get("X-Request-Id")
	if h1 == "" || ok.RequestID != h1 {
		t.Fatalf("success: header %q, body %q", h1, ok.RequestID)
	}
	r2 := postFull(t, ts, QueryRequest{Database: "nope", Query: twoHop})
	defer r2.Body.Close()
	var bad ErrorResponse
	if err := json.NewDecoder(r2.Body).Decode(&bad); err != nil {
		t.Fatal(err)
	}
	h2 := r2.Header.Get("X-Request-Id")
	if h2 == "" || bad.RequestID != h2 {
		t.Fatalf("error: header %q, body %q", h2, bad.RequestID)
	}
	if h1 == h2 {
		t.Fatalf("request IDs collide: %q", h1)
	}
}

// TestSlowQueryLog configures a zero threshold so every request is "slow"
// and checks the structured log line carries the request ID and query.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{
		SlowQuery: time.Nanosecond,
		Logger:    slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	r := postFull(t, ts, QueryRequest{Database: "graph", Query: twoHop})
	r.Body.Close()
	id := r.Header.Get("X-Request-Id")

	out := buf.String()
	var line map[string]any
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatalf("log output %q is not one JSON line: %v", out, err)
	}
	if line["msg"] != "slow query" || line["request_id"] != id || line["query"] != twoHop {
		t.Fatalf("log line = %v", line)
	}
	if line["status"] != float64(200) {
		t.Fatalf("status in log = %v", line["status"])
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent log writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRetryAfterJitterRange pins the jittered Retry-After contract on both
// shed paths: a queue-full 429 and a deadline that fires while queued (504)
// must both carry a Retry-After header whose value lies in
// [RetryAfter, RetryAfter+RetryAfter/2] seconds. A synchronized wave of
// router retries depends on this spread to de-herd.
func TestRetryAfterJitterRange(t *testing.T) {
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	entered := make(chan struct{}, 64)
	s, ts := hookedServer(t, Config{
		MaxConcurrentEvals: 1,
		MaxEvalQueue:       1,
		RetryAfter:         4 * time.Second,
	}, func() { entered <- struct{}{}; <-gate })

	inRange := func(t *testing.T, resp *http.Response) {
		t.Helper()
		ra := resp.Header.Get("Retry-After")
		v, err := strconv.Atoi(ra)
		if err != nil || v < 4 || v > 6 {
			t.Fatalf("Retry-After = %q, want an integer in [4, 6]", ra)
		}
	}

	// Wedge the single slot open with one request; once it demonstrably
	// holds the slot, a short-deadline request can only queue, and its
	// deadline firing there is the queue-timeout shed path: 504 with the
	// jittered Retry-After.
	wedged := make(chan struct{})
	go func() {
		resp := postFull(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true})
		resp.Body.Close()
		close(wedged)
	}()
	<-entered
	resp := postFull(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued probe status = %d, want 504", resp.StatusCode)
	}
	inRange(t, resp)
	resp.Body.Close()

	// Fill the one-deep queue with a long-deadline request; once it is
	// demonstrably queued, the next arrival sheds 429 immediately — the
	// queue-full shed path.
	queued := make(chan struct{})
	go func() {
		resp := postFull(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true, TimeoutMS: 30000})
		resp.Body.Close()
		close(queued)
	}()
	waitForCondition(t, func() bool { return s.limiter.queueDepth() == 1 })
	resp = postFull(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true, TimeoutMS: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full probe status = %d, want 429", resp.StatusCode)
	}
	inRange(t, resp)
	resp.Body.Close()

	close(gate)
	<-wedged
	<-queued
}

// waitForCondition polls fn until it reports success or the deadline runs
// out.
func waitForCondition(t *testing.T, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fn() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

// TestRetryAfterValueDistribution samples the header generator directly:
// every draw stays within the configured bounds, and the jitter actually
// spreads (more than one distinct value over many draws).
func TestRetryAfterValueDistribution(t *testing.T) {
	s, _ := newTestServer(t, Config{RetryAfter: 4 * time.Second})
	seen := map[string]bool{}
	for i := 0; i < 512; i++ {
		v := s.retryAfterValue()
		n, err := strconv.Atoi(v)
		if err != nil || n < 4 || n > 6 {
			t.Fatalf("retryAfterValue() = %q, want an integer in [4, 6]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("512 draws produced a single value %v: jitter is not spreading", seen)
	}
}

// TestBodyOverCapAnswers413: a /query body over 1 MiB and an update body over
// 8 MiB are refused with 413, as bvqrouter refuses them; a body that is
// merely malformed stays a 400.
func TestBodyOverCapAnswers413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := func(n int) []byte {
		return []byte(`{"database":"graph","query":"` + strings.Repeat(" ", n) + `"}`)
	}
	for _, c := range []struct {
		path string
		body []byte
		want int
	}{
		{"/query", huge(2 << 20), http.StatusRequestEntityTooLarge},
		{"/db/graph/update", huge(9 << 20), http.StatusRequestEntityTooLarge},
		{"/query", []byte(`{"database":`), http.StatusBadRequest},
		{"/db/graph/update", []byte(`{"updates":`), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s with %d body bytes: status %d (%s), want %d", c.path, len(c.body), resp.StatusCode, raw, c.want)
		}
	}
}

// TestClientHangUpReleasesSlot: a client that closes its connection on a slow
// JSON miss cancels the evaluation, so the one evaluation slot comes back long
// before the request's own deadline.
func TestClientHangUpReleasesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Databases:          map[string]*database.Database{"ord": orderedDB(t, 20)},
		MaxConcurrentEvals: 1,
	})
	body, _ := json.Marshal(QueryRequest{Database: "ord", Query: counterText, TimeoutMS: 60_000})
	nc, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := fmt.Fprintf(nc, "POST /query HTTP/1.1\r\nHost: bvqd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	for s.Stats().InFlight.Evals == 0 {
		if time.Since(sent) > 5*time.Second {
			t.Fatal("the slow miss never started evaluating")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50*time.Millisecond - time.Since(sent))
	nc.Close()

	code, resp, bad := postQuery(t, ts, QueryRequest{Database: "ord", Query: "(x, y). Less(x, y)", NoCache: true, TimeoutMS: 60_000})
	if code != http.StatusOK || resp.Count == 0 {
		t.Fatalf("second miss after the hang-up: status %d (%s)", code, bad.Error)
	}
	if d := time.Since(sent); d > 10*time.Second {
		t.Fatalf("the slot came back %v after the hang-up; the hung-up request's deadline is 60 s", d)
	}
}
