package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/trace"
	"repro/internal/workload"
)

const reachLFP = "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"

func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func TestLifecycleTraceRecorded(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBufferSize: 16})
	code, resp, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: reachLFP, Engine: "compiled"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.TraceID) != 32 {
		t.Fatalf("trace_id = %q, want a 32-hex W3C trace id", resp.TraceID)
	}

	var list struct {
		Recorded int64 `json:"recorded"`
		Traces   []struct {
			TraceID string `json:"trace_id"`
			Spans   int    `json:"spans"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &list); code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	if list.Recorded != 1 || len(list.Traces) != 1 || list.Traces[0].TraceID != resp.TraceID {
		t.Fatalf("trace list = %+v, want the one request's trace", list)
	}

	var v trace.View
	if code := getJSON(t, ts.URL+"/debug/traces/"+resp.TraceID, &v); code != http.StatusOK {
		t.Fatalf("trace detail status %d", code)
	}
	names := map[string]bool{}
	for _, sp := range v.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{trace.SpanRequest, trace.SpanCompile, trace.SpanAdmission,
		trace.SpanEval, trace.SpanFixpoint, trace.SpanExtract} {
		if !names[want] {
			t.Fatalf("trace missing span %q; got %v", want, names)
		}
	}
	if code := getJSON(t, ts.URL+"/debug/traces/"+strings.Repeat("0", 32), &v); code != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d, want 404", code)
	}
}

// TestFixpointSpanInsideEval: a run's fixpoint span starts when its first
// stage starts and lasts its stages' summed time, so it lies inside its eval
// span. A span stamped when the first stage was reported started one stage
// late and ran past the eval span's end.
func TestFixpointSpanInsideEval(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBufferSize: 16,
		Databases: map[string]*database.Database{"g": workload.RandomGraph(7, 200, 4)}})
	const triangles = "(x). [lfp S(x). (exists y. exists z. E(x, y) & E(y, z) & E(z, x)) | S(x)](x)"
	code, resp, _ := postQuery(t, ts, QueryRequest{Database: "g", Query: triangles, NoCache: true})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var v trace.View
	if code := getJSON(t, ts.URL+"/debug/traces/"+resp.TraceID, &v); code != http.StatusOK {
		t.Fatalf("trace detail status %d", code)
	}
	eval, fixes := -1, 0
	for _, sp := range v.Spans {
		switch {
		case sp.Name == trace.SpanEval:
			eval = sp.ID
		case sp.Name == trace.SpanFixpoint && sp.Parent == eval:
			fixes++
			ev := v.Spans[eval]
			if sp.StartUS < ev.StartUS || sp.StartUS+sp.DurUS > ev.StartUS+ev.DurUS {
				t.Errorf("fixpoint span [%.0f, %.0f] µs outside its eval span [%.0f, %.0f] µs",
					sp.StartUS, sp.StartUS+sp.DurUS, ev.StartUS, ev.StartUS+ev.DurUS)
			}
		}
	}
	if fixes != 1 {
		t.Fatalf("%d fixpoint spans under eval, want 1", fixes)
	}
}

func TestTracesDisabledWithoutBuffer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop})
	if code != http.StatusOK || resp.TraceID != "" {
		t.Fatalf("status %d trace_id %q, want 200 and no trace id when the recorder is off", code, resp.TraceID)
	}
	var v any
	if code := getJSON(t, ts.URL+"/debug/traces", &v); code != http.StatusNotFound {
		t.Fatalf("/debug/traces status %d, want 404 when disabled", code)
	}
}

func TestTraceSampling(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBufferSize: 16, TraceSample: 2})
	traced := 0
	for i := 0; i < 4; i++ {
		code, resp, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if resp.TraceID != "" {
			traced++
		}
	}
	if traced != 2 {
		t.Fatalf("traced %d of 4 requests at sample rate 2, want 2", traced)
	}
}

func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBufferSize: 16})
	wantID := strings.Repeat("ab", 16)
	body, _ := json.Marshal(QueryRequest{Database: "graph", Query: twoHop})
	req, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+wantID+"-00f067aa0ba902b7-01")
	req.Header.Set("X-Request-Id", "upstream-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != wantID {
		t.Fatalf("trace_id = %q, want the client's %q", qr.TraceID, wantID)
	}
	if qr.RequestID != "upstream-42" || resp.Header.Get("X-Request-Id") != "upstream-42" {
		t.Fatalf("request id = %q / header %q, want the client's upstream-42",
			qr.RequestID, resp.Header.Get("X-Request-Id"))
	}
	tp := resp.Header.Get("traceparent")
	gotID, _, ok := trace.ParseTraceparent(tp)
	if !ok || gotID != wantID {
		t.Fatalf("response traceparent = %q, want a valid header continuing trace %s", tp, wantID)
	}
}

// TestSlowQueryLogFields is the regression test for the slow-log record:
// it must carry cache outcome, backend, trace id and the top spans, not
// just the query and its latency.
func TestSlowQueryLogFields(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newTestServer(t, Config{
		TraceBufferSize: 16,
		SlowQuery:       time.Nanosecond, // everything is slow
		Logger:          slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	code, resp, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: reachLFP, Engine: "compiled"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	line := buf.String()
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("parsing slow-query log %q: %v", line, err)
	}
	if rec["msg"] != "slow query" {
		t.Fatalf("log msg = %v", rec["msg"])
	}
	if rec["cache"] != "miss" {
		t.Fatalf("cache = %v, want miss on first evaluation", rec["cache"])
	}
	if rec["backend"] != "auto" {
		t.Fatalf("backend = %v, want auto", rec["backend"])
	}
	if rec["trace_id"] != resp.TraceID {
		t.Fatalf("trace_id = %v, want %s", rec["trace_id"], resp.TraceID)
	}
	spans, _ := rec["spans"].(string)
	if !strings.Contains(spans, "eval=") {
		t.Fatalf("spans = %q, want the top spans with durations (eval=...)", spans)
	}

	// Second identical request: a cache hit must log cache=hit.
	buf.Reset()
	if code, _, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: reachLFP, Engine: "compiled"}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["cache"] != "hit" {
		t.Fatalf("cache = %v on repeat request, want hit", rec["cache"])
	}

	// An uncached stream never reads the cache: bypass, like no_cache on the
	// JSON path — not the "miss" of a run eligible for caching.
	buf.Reset()
	postStream(t, ts, QueryRequest{Database: "graph", Query: reachLFP, Engine: "compiled", Stream: true, NoCache: true})
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["cache"] != "bypass" {
		t.Fatalf("cache = %v on a no_cache stream, want bypass", rec["cache"])
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var v VersionResponse
	if code := getJSON(t, ts.URL+"/version", &v); code != http.StatusOK {
		t.Fatalf("/version status %d", code)
	}
	if v.Service != "bvqd" || !strings.HasPrefix(v.Build.GoVersion, "go") {
		t.Fatalf("version = %+v, want service bvqd and a go version", v)
	}
	st := getStats(t, ts)
	if st.Build.GoVersion != v.Build.GoVersion {
		t.Fatalf("/stats build %+v != /version build %+v", st.Build, v.Build)
	}
}

func TestExplainMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp, _ := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: reachLFP, Engine: "compiled", Explain: true})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("explain requested but response has no explain payload")
	}
	if !ex.Executed || ex.Route == "" || ex.Width == 0 || ex.NumNodes == 0 {
		t.Fatalf("explain = executed=%v route=%q width=%d nodes=%d, want an executed annotated plan",
			ex.Executed, ex.Route, ex.Width, ex.NumNodes)
	}
	if len(ex.Nodes) != ex.NumNodes {
		t.Fatalf("explain has %d node views for %d plan nodes", len(ex.Nodes), ex.NumNodes)
	}
	profiled := 0
	for _, n := range ex.Nodes {
		if n.Evals > 0 {
			profiled++
		}
	}
	if profiled == 0 {
		t.Fatal("no plan node recorded any evaluations in the profile")
	}
	if len(ex.Binders) == 0 {
		t.Fatal("LFP query explain has no binder summaries")
	}
	if b := ex.Binders[0]; b.Stages == 0 {
		t.Fatalf("binder 0 ran no fixpoint stages: %+v", b)
	}

	// The profile counts semi-naive passes on every route: a dirty node (not
	// hoisted, re-evaluated as the fixpoint advances) of this multi-stage LFP
	// is evaluated more than once, and the sparse route — the same stage loop
	// over another representation — reports exactly the dense route's counts.
	dirtyEvals := func(backend string) map[int]int64 {
		t.Helper()
		code, resp, eresp := postQuery(t, ts, QueryRequest{
			Database: "graph", Query: reachLFP, Engine: "compiled", Backend: backend, Explain: true})
		if code != http.StatusOK || resp.Explain == nil {
			t.Fatalf("explain backend=%s: status %d error %q", backend, code, eresp.Error)
		}
		if resp.Explain.Route != backend {
			t.Fatalf("explain backend=%s took route %q", backend, resp.Explain.Route)
		}
		evals := map[int]int64{}
		for _, n := range resp.Explain.Nodes {
			if !n.Hoisted && n.Op != "fix" {
				evals[n.ID] = n.Evals
			}
		}
		return evals
	}
	denseEvals, sparseEvals := dirtyEvals("dense"), dirtyEvals("sparse")
	multi := false
	for id, de := range denseEvals {
		if se := sparseEvals[id]; se != de {
			t.Errorf("dirty node %d: sparse route reports %d evals, dense %d", id, se, de)
		}
		multi = multi || de > 1
	}
	if !multi {
		t.Fatalf("no dirty node was evaluated more than once: %v", denseEvals)
	}

	// Explain results never come from or land in the result cache.
	if resp.ResultCached {
		t.Fatal("explain response claims a cached result")
	}
	code, resp, _ = postQuery(t, ts, QueryRequest{
		Database: "graph", Query: reachLFP, Engine: "compiled", Explain: true})
	if code != http.StatusOK || resp.ResultCached || resp.Explain == nil {
		t.Fatalf("repeat explain: code=%d cached=%v explain=%v", code, resp.ResultCached, resp.Explain != nil)
	}
}

// TestExplainConjunctiveQuery: explain shows the DAG that ran. A sparse-backend
// 2-hop CQ profiles every node of the plan it prints, under a route name the
// router knows; a chain written with more variables than it needs is shown as
// its minimised plan, and its answer is the 3-hop answer.
func TestExplainConjunctiveQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const chain3 = "(x, y). exists u. exists v. E(x, u) & E(u, v) & E(v, y)"
	for _, tc := range []struct {
		query         string
		width, from   int
		count, answer int
	}{{twoHop, 3, 0, 2, 30}, {chain3, 3, 4, 1, 40}} {
		code, resp, eresp := postQuery(t, ts, QueryRequest{
			Database: "graph", Query: tc.query, Engine: "compiled", Backend: "sparse", Explain: true})
		if code != http.StatusOK || resp.Explain == nil {
			t.Fatalf("%s: status %d error %q", tc.query, code, eresp.Error)
		}
		ex := resp.Explain
		if ex.Route != "sparse" || ex.Width != tc.width || ex.MinimizedFrom != tc.from || resp.Width != max(tc.width, tc.from) {
			t.Fatalf("%s: route %q width %d minimized_from %d, response width %d", tc.query, ex.Route, ex.Width, ex.MinimizedFrom, resp.Width)
		}
		for _, n := range ex.Nodes {
			if n.Evals != 1 {
				t.Fatalf("%s: node %d (%s) reports %d evals, want 1", tc.query, n.ID, n.Label, n.Evals)
			}
		}
		if resp.Count != tc.count || resp.Answer[0][0] != 10 || resp.Answer[0][1] != tc.answer {
			t.Fatalf("%s: count %d answer %v", tc.query, resp.Count, resp.Answer)
		}
		var tree strings.Builder
		ex.Render(&tree)
		if got := strings.Contains(tree.String(), "minimized: width 4 → 3\n"); got != (tc.from > 0) {
			t.Fatalf("%s: rendered tree:\n%s", tc.query, tree.String())
		}
	}
}

func TestExplainRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, eresp := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Explain: true, Stream: true})
	if code != http.StatusBadRequest {
		t.Fatalf("explain+stream: status %d error %q, want 400", code, eresp.Error)
	}
	code, _, eresp = postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "bottomup", Explain: true})
	if code != http.StatusBadRequest {
		t.Fatalf("explain with bottomup engine: status %d error %q, want 400", code, eresp.Error)
	}
}
