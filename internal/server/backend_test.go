package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestBackendRouting pins the wire contract of the backend field: sparse and
// dense agree on answers through the compiled engine, the response echoes
// the resolved backend, and sparse runs report their Stats counters.
func TestBackendRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, dense, _ := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Backend: "dense"})
	if code != http.StatusOK {
		t.Fatalf("dense backend: status %d", code)
	}
	if dense.Backend != "dense" {
		t.Fatalf("response backend %q, want dense", dense.Backend)
	}

	code, sparse, _ := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Backend: "sparse"})
	if code != http.StatusOK {
		t.Fatalf("sparse backend: status %d", code)
	}
	if sparse.Backend != "sparse" {
		t.Fatalf("response backend %q, want sparse", sparse.Backend)
	}
	if len(sparse.Answer) != len(dense.Answer) || sparse.Count != dense.Count {
		t.Fatalf("backends disagree: sparse %v, dense %v", sparse.Answer, dense.Answer)
	}
	for i := range sparse.Answer {
		for j := range sparse.Answer[i] {
			if sparse.Answer[i][j] != dense.Answer[i][j] {
				t.Fatalf("backends disagree: sparse %v, dense %v", sparse.Answer, dense.Answer)
			}
		}
	}
	// Only the sparse algebra writes tuples; twoHop is width-minimal, so its
	// plan is the one it was written with.
	if sparse.Stats == nil || sparse.Stats.TuplesTouched == 0 || sparse.Stats.AcyclicFastPath != 0 {
		t.Fatalf("sparse stats: %+v", sparse.Stats)
	}
	// An unadorned request must not echo a backend (wire compatibility).
	code, auto, _ := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled"})
	if code != http.StatusOK || auto.Backend != "" {
		t.Fatalf("auto request echoed backend %q (status %d)", auto.Backend, code)
	}
}

// TestBackendValidation pins the 400s: unknown backend names, and non-auto
// backends on engines that have no notion of one.
func TestBackendValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, _, bad := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Backend: "columnar"})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown backend: status %d", code)
	}
	if !strings.Contains(bad.Error, "unknown backend") {
		t.Fatalf("unknown backend error %q", bad.Error)
	}

	for _, engine := range []string{"bottomup", "naive"} {
		code, _, bad := postQuery(t, ts, QueryRequest{
			Database: "graph", Query: twoHop, Engine: engine, Backend: "sparse"})
		if code != http.StatusBadRequest {
			t.Fatalf("engine %q with sparse backend: status %d", engine, code)
		}
		if !strings.Contains(bad.Error, "requires the compiled engine") {
			t.Fatalf("engine %q error %q", engine, bad.Error)
		}
	}

	// backend=auto is the default and valid everywhere; a request that names
	// no engine gets the compiled one, so it may name any backend.
	for _, req := range []QueryRequest{
		{Database: "graph", Query: twoHop, Engine: "bottomup", Backend: "auto"},
		{Database: "graph", Query: twoHop, Backend: "sparse"},
	} {
		code, ok, bad := postQuery(t, ts, req)
		if code != http.StatusOK || (req.Engine == "" && ok.Engine != "compiled") {
			t.Fatalf("%+v: status %d, engine %q (%s)", req, code, ok.Engine, bad.Error)
		}
	}
}

// TestBackendCacheIsolation pins that the result cache keys on the backend:
// a dense run's cached statistics must never be served to a sparse request.
func TestBackendCacheIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, first, _ := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Backend: "dense"})
	if first.ResultCached {
		t.Fatal("first dense request served from cache")
	}
	_, second, _ := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Backend: "dense"})
	if !second.ResultCached {
		t.Fatal("repeat dense request not served from cache")
	}
	_, cross, _ := postQuery(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Backend: "sparse"})
	if cross.ResultCached {
		t.Fatal("sparse request served a dense run's cache entry")
	}
	if cross.Stats == nil || cross.Stats.TuplesTouched == 0 {
		t.Fatalf("sparse request got non-sparse stats: %+v", cross.Stats)
	}
}

// TestBackendObservability pins the new operational surfaces: the aggregate
// /stats counters and the Prometheus families move when sparse runs happen.
func TestBackendObservability(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A 3-hop chain written with four variables runs as its width-3
	// minimised plan, which is what acyclic_fast_path counts.
	postQuery(t, ts, QueryRequest{
		Database: "graph", Query: "(x, y). exists u. exists v. E(x, u) & E(u, v) & E(v, y)", Engine: "compiled", Backend: "sparse"})
	st := s.Stats()
	if st.Eval.TuplesTouched == 0 {
		t.Fatalf("aggregate tuples_touched is zero after a sparse run: %+v", st.Eval)
	}
	if st.Eval.AcyclicFastPath != 1 {
		t.Fatalf("aggregate acyclic_fast_path = %d, want 1", st.Eval.AcyclicFastPath)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, family := range []string{
		"bvqd_queries_by_backend_total{backend=\"sparse\"} 1",
		"bvqd_eval_tuples_touched_total",
		"bvqd_eval_rep_switches_total",
		"bvqd_eval_acyclic_fastpath_total",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics missing %q:\n%s", family, body)
		}
	}
}
