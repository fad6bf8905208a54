package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from this run")

const goldenPath = "testdata/wire_golden.txt"

// goldenStep is one request of the wire script: the body is raw JSON, so the
// script can send what no QueryRequest value marshals to.
type goldenStep struct {
	name, path, body string
}

const (
	oneHop     = "(x). exists y. E(x, y)"
	boolQuery  = "(). exists x. P(x)"
	chainReach = "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"
)

func queryStep(name, fields string) goldenStep {
	return goldenStep{name: name, path: "/query", body: "{" + fields + "}"}
}

func q(db, query string) string {
	return fmt.Sprintf(`"database":%q,"query":%q`, db, query)
}

// goldenScript is the fixed request sequence whose every response byte is
// pinned: each way a /query can be served, every rejection of the
// validation ladder, and an update that carries, maintains and invalidates.
var goldenScript = []goldenStep{
	queryStep("json miss", q("graph", twoHop)+`,"engine":"compiled"`),
	queryStep("json hit", q("graph", twoHop)+`,"engine":"compiled"`),
	queryStep("json limit+offset on a hit", q("graph", twoHop)+`,"engine":"compiled","limit":1,"offset":1`),
	queryStep("json offset past the end", q("graph", twoHop)+`,"engine":"compiled","offset":99`),
	queryStep("json boolean", q("graph", boolQuery)+`,"engine":"compiled"`),
	queryStep("json no_cache", q("graph", twoHop)+`,"engine":"compiled","no_cache":true`),
	queryStep("lfp compiled", q("graph", reachLFP)+`,"engine":"compiled"`),
	queryStep("explain dense", q("graph", reachLFP)+`,"engine":"compiled","backend":"dense","explain":true`),
	queryStep("explain sparse", q("graph", reachLFP)+`,"engine":"compiled","backend":"sparse","explain":true`),
	queryStep("stream miss", q("graph", oneHop)+`,"engine":"compiled","stream":true`),
	queryStep("stream hit", q("graph", oneHop)+`,"engine":"compiled","stream":true`),
	queryStep("stream window on a hit", q("graph", twoHop)+`,"engine":"compiled","stream":true,"limit":1,"offset":1`),
	queryStep("stream limit on the acyclic route", q("graph", twoHop)+`,"engine":"compiled","backend":"sparse","stream":true,"limit":1`),
	queryStep("stream boolean", q("graph", boolQuery)+`,"engine":"compiled","stream":true`),
	queryStep("stream no_cache", q("graph", oneHop)+`,"engine":"compiled","stream":true,"no_cache":true`),

	{name: "400 malformed json", path: "/query", body: `{"database":`},
	queryStep("400 unknown field", q("graph", twoHop)+`,"bogus":1`),
	queryStep("400 parallelism", q("graph", twoHop)+`,"parallelism":-1`),
	queryStep("400 max_width", q("graph", twoHop)+`,"max_width":-1`),
	queryStep("400 trace", q("graph", reachLFP)+`,"engine":"compiled","trace":true`),
	queryStep("400 indices", q("graph", twoHop)+`,"indices":true`),
	queryStep("400 negative timeout_ms", q("graph", twoHop)+`,"timeout_ms":-1`),
	queryStep("400 negative limit", q("graph", twoHop)+`,"limit":-1`),
	queryStep("400 negative offset", q("graph", twoHop)+`,"offset":-1`),
	queryStep("400 stream+explain", q("graph", twoHop)+`,"stream":true,"explain":true`),
	queryStep("404 unknown database", q("nope", twoHop)),
	queryStep("400 unknown engine", q("graph", twoHop)+`,"engine":"warp"`),
	queryStep("400 engine bottomup", q("graph", twoHop)+`,"engine":"bottomup"`),
	queryStep("400 unknown backend", q("graph", twoHop)+`,"engine":"compiled","backend":"columnar"`),
	queryStep("400 parse error", q("graph", "(x). exists y E(x, y)")+`,"engine":"compiled"`),
	queryStep("422 evaluation error", q("graph", "(x). Nope(x)")+`,"engine":"compiled"`),
	queryStep("422 explain outside the compilable fragment", q("graph", "(). exists2 C/1. forall x. C(x)")+`,"explain":true`),
	queryStep("422 outside the compilable fragment", q("graph", "(). exists2 C/1. forall x. C(x)")),

	queryStep("chain reach compiled", q("chain", chainReach)+`,"engine":"compiled"`),
	queryStep("chain P compiled", q("chain", "(x). P(x)")+`,"engine":"compiled"`),
	queryStep("chain hop compiled", q("chain", oneHop)+`,"engine":"compiled"`),
	{name: "update carries, maintains, invalidates", path: "/db/chain/update",
		body: `{"updates":[{"relation":"E","insert":[[3,4]]}]}`},
	queryStep("chain reach compiled, maintained hit", q("chain", chainReach)+`,"engine":"compiled"`),
	queryStep("chain hop compiled, invalidated", q("chain", oneHop)+`,"engine":"compiled"`),
	{name: "update noop", path: "/db/chain/update",
		body: `{"updates":[{"relation":"E","insert":[[3,4]]}]}`},
	{name: "update 409", path: "/db/chain/update",
		body: `{"updates":[{"relation":"E","delete":[[1,2]]}],"base_version":7}`},

	// Three texts over one closed sub-plan: the node cache is offered it,
	// admits it, serves it; the update then leaves what read the old E to age out.
	queryStep("shared sub-plan, offered", q("chain", "(x, y). P(x) & (exists z. E(x, z) & E(z, y))")+`,"engine":"compiled"`),
	queryStep("shared sub-plan, admitted", q("chain", "(x, y). P(y) & (exists z. E(x, z) & E(z, y))")+`,"engine":"compiled"`),
	queryStep("shared sub-plan, hit", q("chain", "(x, y). E(x, y) | (exists z. E(x, z) & E(z, y))")+`,"engine":"compiled"`),
	{name: "update invalidates shared sub-plans", path: "/db/chain/update",
		body: `{"updates":[{"relation":"E","insert":[[4,5]]}]}`},

	// No engine named: the serving default answers.
	queryStep("default engine, json miss", q("graph", "(y). exists x. E(x, y)")),
	queryStep("default engine, json hit", q("graph", "(y). exists x. E(x, y)")),
	queryStep("default engine, stream", q("graph", boolQuery)+`,"stream":true,"no_cache":true`),
}

// Per-run values: wall times, identifiers minted from the clock or the
// random source. busy_us/wall_us are omitempty integers, so they are removed
// with their comma rather than zeroed.
var goldenNormalizers = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(elapsed_ms|elapsed_us)":[0-9.e+-]+`), `"$1":0`},
	{regexp.MustCompile(`"(request_id|trace_id)":"[^"]*"`), `"$1":"-"`},
	{regexp.MustCompile(`,"(busy_us|wall_us)":[0-9]+`), ``},
}

func normalizeGolden(b []byte) []byte {
	for _, n := range goldenNormalizers {
		b = n.re.ReplaceAll(b, []byte(n.with))
	}
	return b
}

func httpGet(t testing.TB, url string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

// runGoldenScript plays goldenScript against a fresh server and returns the
// normalized transcript of every response.
func runGoldenScript(t testing.TB) (*serve.Server, []byte) {
	return runGoldenScriptWith(t, true)
}

// runGoldenScriptWith plays the script with or without the node store; a
// server without one is what the engine API gives every caller of eval.
func runGoldenScriptWith(t testing.TB, share bool) (*serve.Server, []byte) {
	t.Helper()
	s, ts := newTestServer(t, Config{
		Databases:       map[string]*database.Database{"graph": graphDB(t), "chain": chainDB(t)},
		TraceBufferSize: 64,
	})
	if !share {
		s.nodes = nil // before the first request: no run has read it yet
	}
	var out bytes.Buffer
	traceIDs := map[string]string{}
	for _, st := range goldenScript {
		resp, err := http.Post(ts.URL+st.path, "application/json", strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var probe struct {
			TraceID string `json:"trace_id"`
		}
		if json.Unmarshal(raw, &probe) == nil && probe.TraceID != "" {
			traceIDs[st.name] = probe.TraceID
		}
		fmt.Fprintf(&out, "## %s\nPOST %s %s\n-> %d %s\n%s\n", st.name, st.path, st.body,
			resp.StatusCode, resp.Header.Get("Content-Type"), normalizeGolden(raw))
	}

	// The span tree of one LFP evaluation: shape and fixpoint counters, not
	// times.
	var v trace.View
	if err := json.Unmarshal(httpGet(t, ts.URL+"/debug/traces/"+traceIDs["lfp compiled"]), &v); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "## span tree of \"lfp compiled\"\n")
	for _, sp := range v.Spans {
		parent := "-"
		if sp.Parent >= 0 {
			parent = v.Spans[sp.Parent].Name
		}
		fmt.Fprintf(&out, "%s <- %s", sp.Name, parent)
		if sp.Name == trace.SpanFixpoint {
			fmt.Fprintf(&out, " %v stages=%d tuples=%d delta_tuples=%d", sp.Attrs, sp.Stages, sp.Tuples, sp.DeltaTuples)
		}
		out.WriteByte('\n')
	}

	var stats map[string]any
	if err := json.Unmarshal(httpGet(t, ts.URL+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	delete(stats, "uptime_seconds")
	delete(stats, "build")
	sj, err := json.MarshalIndent(stats, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "\n## /stats\n%s\n\n## /metrics\n", sj)

	// Family metadata and every sample a clock does not decide: histogram
	// buckets and sums, and the uptime gauge, are left out.
	for _, line := range strings.Split(string(httpGet(t, ts.URL+"/metrics")), "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if line == "" || strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") ||
			name == "bvqd_uptime_seconds" {
			continue
		}
		out.WriteString(line + "\n")
	}
	return ts, out.Bytes()
}

// TestWireGolden pins the bytes bvqd puts on the wire: response bodies,
// status codes and content types of the whole script, then the counters the
// script leaves behind in /stats and /metrics and the span tree of a traced
// fixpoint. Regenerate with -update only when a wire change is intended.
func TestWireGolden(t *testing.T) {
	_, got := runGoldenScript(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("wire differs from %s at line %d:\n got: %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("wire differs from %s in length: got %d lines, want %d", goldenPath, len(gl), len(wl))
}

// TestWireWithoutNodeCache plays the script with sub-plan sharing disabled.
// Sharing may only move the work a run reports: apart from the stats objects,
// every response is the one the sharing server gives, no run reports a shared
// node, and /stats shows an idle node cache.
func TestWireWithoutNodeCache(t *testing.T) {
	_, on := runGoldenScript(t)
	ts, off := runGoldenScriptWith(t, false)
	responses := func(transcript []byte) string {
		head, _, _ := bytes.Cut(transcript, []byte("## span tree"))
		return string(regexp.MustCompile(`"stats":\{[^}]*\}`).ReplaceAll(head, []byte(`"stats":{}`)))
	}
	if got, want := responses(off), responses(on); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs beyond its stats:\n off: %s\n  on: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcripts differ in length: %d lines off, %d on", len(gl), len(wl))
	}
	if bytes.Contains(off, []byte("nodes_shared")) || !bytes.Contains(on, []byte(`"nodes_shared":1`)) {
		t.Fatal("nodes_shared must appear exactly when a run took a node from the cache")
	}
	var st StatsResponse
	if err := json.Unmarshal(httpGet(t, ts.URL+"/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.NodeCache != (eval.NodeStoreStats{}) {
		t.Fatalf("disabled node cache reports %+v", st.NodeCache)
	}
}

// TestStatsMatchesMetrics checks that /stats and /metrics agree wherever
// they report the same scalar, after a script that moves most of them.
func TestStatsMatchesMetrics(t *testing.T) {
	ts, _ := runGoldenScript(t)
	var st StatsResponse
	if err := json.Unmarshal(httpGet(t, ts.URL+"/stats"), &st); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(bytes.NewReader(httpGet(t, ts.URL+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	scraped := map[string]float64{} // unlabelled samples, and per-family sums of labelled counters
	for _, f := range fams {
		if f.Type == "histogram" {
			continue
		}
		for _, s := range f.Samples {
			scraped[f.Name] += s.Value
		}
	}
	for name, want := range map[string]int64{
		"bvqd_queries_total":                st.Queries,
		"bvqd_errors_total":                 st.Errors,
		"bvqd_timeouts_total":               st.Timeouts,
		"bvqd_shed_total":                   st.Shed,
		"bvqd_panics_recovered_total":       st.Panics,
		"bvqd_slow_queries_total":           st.SlowQueries,
		"bvqd_coalesced_total":              st.Coalesced,
		"bvqd_streams_total":                st.Streams,
		"bvqd_stream_disconnects_total":     st.StreamDisconnects,
		"bvqd_evals_in_flight":              st.InFlight.Evals,
		"bvqd_queue_depth":                  st.InFlight.Queued,
		"bvqd_plan_cache_size":              int64(st.PlanCache.Size),
		"bvqd_plan_cache_hits_total":        st.PlanCache.Hits,
		"bvqd_plan_cache_misses_total":      st.PlanCache.Misses,
		"bvqd_plan_cache_evictions_total":   st.PlanCache.Evictions,
		"bvqd_result_cache_size":            int64(st.ResultCache.Size),
		"bvqd_result_cache_hits_total":      st.ResultCache.Hits,
		"bvqd_result_cache_misses_total":    st.ResultCache.Misses,
		"bvqd_result_cache_evictions_total": st.ResultCache.Evictions,
		"bvqd_updates_total":                st.Churn.Updates,
		"bvqd_maintained_results_total":     st.Churn.Maintained,
		"bvqd_cache_invalidations_total":    st.Churn.Invalidated,
		"bvqd_eval_subformula_evals_total":  st.Eval.SubformulaEvals,
		"bvqd_eval_fix_iterations_total":    st.Eval.FixIterations,
		"bvqd_eval_tuples_touched_total":    st.Eval.TuplesTouched,
		"bvqd_eval_rep_switches_total":      st.Eval.RepSwitches,
		"bvqd_eval_acyclic_fastpath_total":  st.Eval.AcyclicFastPath,
		"bvqd_node_cache_hits_total":        st.NodeCache.Hits,
		"bvqd_node_cache_misses_total":      st.NodeCache.Misses,
		"bvqd_node_cache_admitted_total":    st.NodeCache.Admitted,
		"bvqd_node_cache_evictions_total":   st.NodeCache.Evictions,
		"bvqd_node_cache_entries":           st.NodeCache.Entries,
		"bvqd_node_cache_bytes":             st.NodeCache.Bytes,
	} {
		got, ok := scraped[name]
		if !ok {
			t.Errorf("%s: not on /metrics", name)
		} else if int64(got) != want {
			t.Errorf("%s = %v on /metrics, %d on /stats", name, got, want)
		}
	}
	if st.Queries == 0 || st.Errors == 0 || st.Streams == 0 || st.Churn.Updates == 0 ||
		st.Churn.Maintained == 0 || st.Eval.FixIterations == 0 ||
		st.NodeCache.Hits == 0 || st.NodeCache.Bytes == 0 {
		t.Fatalf("the script left a compared counter at zero, so its agreement shows nothing: %+v", st)
	}
}
