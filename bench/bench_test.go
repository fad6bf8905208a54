package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/router"
	"repro/internal/server"
)

const testScale = 20

func mustGenerate(t *testing.T, name string, seed uint64, clients int) *workload {
	t.Helper()
	w, err := generate(name, seed, clients, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := mustGenerate(t, name, 7, 2).digest(), mustGenerate(t, name, 7, 2).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if c := mustGenerate(t, name, 8, 2).digest(); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
	if a, b := mustGenerate(t, "hot-direct", 3, 2).digest(), mustGenerate(t, "hot-routed", 3, 2).digest(); a != b {
		t.Errorf("hot-routed must replay hot-direct's ops: digests %s and %s", a, b)
	}
}

// Every block of a sequence must be the same mix, or the median block is
// not a measurement of anything.
func TestBlocksHoldTheSameMix(t *testing.T) {
	for _, name := range workloadNames {
		w := mustGenerate(t, name, 1, 2)
		for c, seq := range w.seqs {
			if len(seq)%w.block != 0 {
				t.Fatalf("%s client %d: %d ops is not a whole number of %d-op blocks", name, c, len(seq), w.block)
			}
			var want [3]int
			for at := 0; at < len(seq); at += w.block {
				var got [3]int
				for _, o := range seq[at : at+w.block] {
					got[o.kind]++
				}
				if at == 0 {
					want = got
				} else if got != want {
					t.Errorf("%s client %d: block at %d has reads/drains/updates %v, the first %v", name, c, at, got, want)
				}
			}
			if name == "churn-direct" && c == 0 && (want[opUpdate] == 0 || want[opUpdate]%2 != 0) {
				t.Errorf("churn-direct: %d writes per block; want a positive even number", want[opUpdate])
			}
		}
	}
}

func TestTextsParseWithinWidthThree(t *testing.T) {
	families := map[string]bool{}
	for _, name := range workloadNames {
		w := mustGenerate(t, name, 1, 2)
		seen := map[string]bool{}
		for _, q := range w.queries {
			if seen[q.wire] {
				t.Errorf("%s: text sent twice as distinct: %s", name, q.wire)
			}
			seen[q.wire] = true
			families[q.fam] = true
			parsed, err := parser.ParseQuery(q.wire)
			if err != nil {
				t.Fatalf("%s: %v", q.wire, err)
			}
			if width := parsed.Width(); width > 3 {
				t.Errorf("%s: width %d", q.wire, width)
			}
			if parsed.Arity() != q.arity() {
				t.Errorf("%s: arity %d, spec says %d", q.wire, parsed.Arity(), q.arity())
			}
		}
	}
	for _, fam := range []string{"hop", "tri", "tc", "reach", "gfp-live", "fo-neg"} {
		if !families[fam] {
			t.Errorf("no workload uses family %s", fam)
		}
	}
}

// The native oracle must agree with the engines on every text, in every
// content state the churn workload passes through.
func TestOracleAgreesWithEngines(t *testing.T) {
	for _, name := range workloadNames {
		w := mustGenerate(t, name, 2, 2)
		n, err := crossCheck(w, 2, len(w.queries))
		if err != nil {
			t.Fatal(err)
		}
		if n != len(w.queries) {
			t.Errorf("%s: %d of %d texts checked", name, n, len(w.queries))
		}
	}
	w := mustGenerate(t, "churn-direct", 2, 2)
	e := w.churnEdges[0]
	w.graphs[0] = w.graphs[0].withEdge(0, e[0], e[1])
	w.dbText[0] = w.graphs[0].database().String()
	if _, err := crossCheck(w, 2, len(w.queries)); err != nil {
		t.Fatalf("after inserting %v: %v", e, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) of the same lists.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2, 3, 4, 5, 6}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	rows := layerTable([]span{
		{Name: "op", Start: 0, End: 100e6, Parent: -1},
		{Name: "server.handle", Start: 10e6, End: 70e6, Parent: 0},
		{Name: "eval.dense", Start: 70e6, End: 90e6, Parent: 0},
	})
	self := map[string]float64{}
	for _, r := range rows {
		self[r.name] = r.selfMS
	}
	if self["op"] != 20 || self["server.handle"] != 60 || self["eval.dense"] != 20 {
		t.Errorf("self times %v; want op 20, server.handle 60, eval.dense 20", self)
	}
}

// benchmarkFile is BENCHMARK.json as far as the benchmark itself must
// agree with it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(file.Workloads), len(workloadNames))
	}
	for i, wl := range file.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, wl.Name, workloadNames[i])
		}
	}
	check := func(section string, listed []benchmarkMetric, ours []metric, bounded bool) {
		if len(listed) != len(ours) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", section, len(listed), len(ours))
			return
		}
		for i, m := range listed {
			if m.Name != ours[i].name || m.Unit != ours[i].unit || m.Better != ours[i].better {
				t.Errorf("%s[%d]: %s %s %s in BENCHMARK.json, %s %s %s here", section, i,
					m.Name, m.Unit, m.Better, ours[i].name, ours[i].unit, ours[i].better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s: bound present %v, want %v", section, m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", section, m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)

	// The result line carries exactly the listed names, with their units.
	res := &result{attempted: 1, values: map[string]float64{"p50_ms": 1.5}}
	for _, names := range [][]metric{endToEnd, perLayer} {
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(resultLine(res, names), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != 1 || len(line.Metrics) != len(names) {
			t.Errorf("result line: correct %v, attempted %d, %d metrics for %d names", line.Correct, line.Attempted, len(line.Metrics), len(names))
		}
		for _, m := range names {
			if got, ok := line.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("result line: %s: present %v, unit %q, want %q", m.name, ok, got.Unit, m.unit)
			}
		}
	}
}

// inProcess serves a workload from httptest servers running the same
// handlers as bvqd and bvqrouter, and returns the URL the clients target.
func inProcess(t *testing.T, w *workload) string {
	t.Helper()
	replica := func() string {
		dbs, err := w.parseDatabases()
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(bvqdDefaults(w, dbs))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	if !w.routed {
		return replica()
	}
	rt, err := router.New(router.Config{Replicas: []string{replica(), replica(), replica()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// One block of every workload against in-process servers: every answer is
// checked, and every client-side end-to-end metric comes out positive.
func TestShortPassOfEveryWorkload(t *testing.T) {
	start := time.Now()
	for _, name := range workloadNames {
		w := mustGenerate(t, name, 1, 2)
		d := newDriver(w, inProcess(t, w), 2)
		if err := d.warmUp(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		samples, wall := d.phase(0, w.block)
		res := &result{workload: name, values: map[string]float64{}, counts: map[string]int{}}
		summarize(res, w, samples, wall, 1, 1)
		if res.failed != 0 || res.attempted != 2*w.block {
			t.Errorf("%s: %d of %d ops failed: %v", name, res.failed, res.attempted, d.failures)
		}
		for _, m := range endToEnd {
			if m.name == "setup_s" {
				continue // set-up is timed around real processes only
			}
			if v := res.values[m.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, m.name, v)
			}
		}
		if name == "churn-direct" && !(res.values["write_p50_ms"] > 0) {
			t.Errorf("churn-direct: no write latency: %v", res.values["write_p50_ms"])
		}
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the short pass took %v; it must stay under 5s", took)
	}
}

// A wrong answer must count as a failed op, not pass unnoticed.
func TestWrongAnswerFails(t *testing.T) {
	w := mustGenerate(t, "hot-direct", 1, 1)
	d := newDriver(w, inProcess(t, w), 1)
	d.expects[0][w.seqs[0][0].query].hash++
	samples, _ := d.phase(0, 4)
	failed := 0
	for _, s := range samples[0] {
		if s.failed {
			failed++
		}
	}
	if failed == 0 || len(d.failures) == 0 {
		t.Errorf("a tampered expectation went unnoticed: %d failures, %v", failed, d.failures)
	}
}

// The traced run's in-process half, on the smallest workload: it must
// yield every class-(b) figure whose layer the workload uses.
func TestLayerTimings(t *testing.T) {
	w := mustGenerate(t, "churn-direct", 1, 1)
	d := newDriver(w, "", 1)
	saved := traceReplayOps[w.name]
	traceReplayOps[w.name] = 32
	defer func() { traceReplayOps[w.name] = saved }()
	out := t.TempDir()
	tm, err := layerTimings(paths{out: out}, w, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"parser.parse_us", "plan.compile_us", "plan.nodes", "eval.dense_ms", "eval.maintain_ms", "eval.recompute_ms",
		"database.apply_us", "server.update_us", "server.handle_hit_us", "server.handle_hit_allocs", "server.handle_miss_us",
		"server.self_us", "server.encode_ns_per_row", "relation.dense_and_ns", "relation.sparse_intersect_ns",
		"bitset.or_ns_per_kword", "cache.result_get_ns", "cache.key_ns", "database.parse_ms", "router.hop_us",
		"router.ring_lookup_ns", "router.upstream_dials_per_kop", "client.loopback_rtt_us", "trace.overhead_share",
	} {
		if len(tm[name]) == 0 {
			t.Errorf("no samples for %s", name)
		}
		if unitOf(name) == "" {
			t.Errorf("%s is not in the metric dictionary", name)
		}
	}
	// The handler's compile and eval stages lie inside its own time.
	for _, v := range tm["server.self_us"] {
		if v < 0 {
			t.Errorf("server.self_us sample %v below zero", v)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "trace-churn-direct.json")); err != nil {
		t.Error(err)
	}
}
