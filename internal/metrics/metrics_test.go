package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops")
	g := r.NewGauge("test_depth", "depth")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 || g.Value() != 5 {
		t.Fatalf("counter=%d gauge=%d, want 5 and 5", c.Value(), g.Value())
	}
	fams := mustParse(t, r)
	if v := sampleValue(t, fams, "test_ops_total", nil); v != 5 {
		t.Fatalf("exposed counter = %g", v)
	}
	if v := sampleValue(t, fams, "test_depth", nil); v != 5 {
		t.Fatalf("exposed gauge = %g", v)
	}
}

func TestFuncMetricsReadAtScrapeTime(t *testing.T) {
	r := NewRegistry()
	n := int64(0)
	r.NewCounterFunc("test_live_total", "live", func() int64 { return n })
	n = 42
	if v := sampleValue(t, mustParse(t, r), "test_live_total", nil); v != 42 {
		t.Fatalf("func counter = %g, want 42", v)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("test_latency_seconds", "latency", "engine", []float64{0.01, 0.1, 1}).With("compiled")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	fams := mustParse(t, r)
	f := familyByName(t, fams, "test_latency_seconds")
	wantBuckets := map[string]float64{"0.01": 1, "0.1": 3, "1": 4, "+Inf": 5}
	for _, s := range f.Samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			if want := wantBuckets[s.Labels["le"]]; s.Value != want {
				t.Errorf("bucket le=%s = %g, want %g", s.Labels["le"], s.Value, want)
			}
		}
		if strings.HasSuffix(s.Name, "_count") && s.Value != 5 {
			t.Errorf("count = %g, want 5", s.Value)
		}
		if strings.HasSuffix(s.Name, "_sum") && math.Abs(s.Value-5.605) > 1e-9 {
			t.Errorf("sum = %g, want 5.605", s.Value)
		}
	}
}

func TestVecChildrenAndLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_requests_total", "requests", "code")
	cv.With("200").Add(3)
	cv.With("429").Inc()
	hv := r.NewHistogramVec("test_eval_seconds", "eval", "engine", []float64{1})
	hv.With("bottomup").Observe(0.5)
	hv.With(`we"ird\nv`).Observe(2)
	fams := mustParse(t, r)
	if v := sampleValue(t, fams, "test_requests_total", map[string]string{"code": "200"}); v != 3 {
		t.Fatalf("code=200 = %g", v)
	}
	if v := sampleValue(t, fams, "test_requests_total", map[string]string{"code": "429"}); v != 1 {
		t.Fatalf("code=429 = %g", v)
	}
	// The escaped label value must survive a write/parse round trip.
	if v := sampleValue(t, fams, "test_eval_seconds_count", map[string]string{"engine": `we"ird\nv`}); v != 1 {
		t.Fatalf("escaped label lost: %g", v)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family name did not panic")
		}
	}()
	r.NewGauge("test_dup_total", "y")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.NewCounter("9starts_with_digit", "x")
}

// TestExpositionFormat is the format validator: the handler's output must
// carry the scrape content type and parse under the strict rules of
// ParseText (HELP/TYPE before samples, unique families, parseable sample
// lines, cumulative histograms).
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("app_ops_total", "operations with a \\ backslash and\nnewline in help")
	g := r.NewGauge("app_queue_depth", "queue depth")
	g.Set(3)
	h := r.NewHistogramVec("app_latency_seconds", "latency", "engine", nil)
	h.With("bottomup").Observe(0.002)
	h.With("compiled").Observe(0.2)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	fams, err := ParseText(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if len(fams) != 3 {
		t.Fatalf("families = %d, want 3", len(fams))
	}
	// Families come out sorted by name.
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Fatalf("families not sorted: %s >= %s", fams[i-1].Name, fams[i].Name)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":    "foo 1\n",
		"TYPE without HELP":     "# TYPE foo counter\nfoo 1\n",
		"duplicate family":      "# HELP foo x\n# TYPE foo counter\nfoo 1\n# HELP foo x\n# TYPE foo counter\n",
		"foreign sample":        "# HELP foo x\n# TYPE foo counter\nbar 1\n",
		"bad value":             "# HELP foo x\n# TYPE foo counter\nfoo abc\n",
		"duplicate sample":      "# HELP foo x\n# TYPE foo counter\nfoo 1\nfoo 2\n",
		"unknown type":          "# HELP foo x\n# TYPE foo wibble\nfoo 1\n",
		"non-cumulative hist":   "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf bucket vs count":   "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"missing +Inf bucket":   "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_sum 1\nh_count 3\n",
		"unterminated labels":   "# HELP foo x\n# TYPE foo counter\nfoo{a=\"b\n",
		"trailing HELP no TYPE": "# HELP foo x\n",
	}
	for name, text := range cases {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestConcurrentInstruments hammers every instrument kind from several
// goroutines; meaningful under -race (make check runs this package so).
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_c_total", "c")
	g := r.NewGauge("test_g", "g")
	cv := r.NewCounterVec("test_cv_total", "cv", "k")
	hv := r.NewHistogramVec("test_hv_seconds", "hv", "k", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Add(1)
				cv.With("a").Inc()
				hv.With("b").Observe(0.01)
				if i%100 == 0 {
					var sb strings.Builder
					if _, err := r.WriteTo(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if h := hv.With("b"); c.Value() != 4000 || h.Count() != 4000 || cv.With("a").Value() != 4000 {
		t.Fatalf("lost updates: c=%d hv=%d cv=%d", c.Value(), h.Count(), cv.With("a").Value())
	}
	if _, err := ParseText(strings.NewReader(render(t, r))); err != nil {
		t.Fatalf("post-hammer exposition invalid: %v", err)
	}
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func mustParse(t *testing.T, r *Registry) []Family {
	t.Helper()
	fams, err := ParseText(strings.NewReader(render(t, r)))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return fams
}

func familyByName(t *testing.T, fams []Family, name string) Family {
	t.Helper()
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("family %s not found", name)
	return Family{}
}

func sampleValue(t *testing.T, fams []Family, sample string, labels map[string]string) float64 {
	t.Helper()
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != sample {
				continue
			}
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.Value
			}
		}
	}
	t.Fatalf("sample %s%v not found", sample, labels)
	return 0
}

// TestParseKeepsSeriesThatJoinAlike: a label value may hold the separators
// of another label set's rendering; the two are still different series.
func TestParseKeepsSeriesThatJoinAlike(t *testing.T) {
	fams, err := ParseText(strings.NewReader("# HELP a x\n# TYPE a counter\na{x=\"1,y=2\"} 1\na{x=\"1\",y=\"2\"} 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fams[0].Samples); n != 2 {
		t.Fatalf("%d samples, want 2", n)
	}
	if got := Merge(fams, fams)[0].Samples; len(got) != 2 || got[0].Value != 2 || got[1].Value != 2 {
		t.Fatalf("merged %+v, want the two series kept apart and doubled", got)
	}
}

// TestMergeSumsInFirstSeenOrder: families and series come out in the order
// they were first seen, metadata from their first appearance, values summed.
func TestMergeSumsInFirstSeenOrder(t *testing.T) {
	a := []Family{
		{Name: "q_total", Help: "first", Type: "counter", Samples: []Sample{{Name: "q_total", Value: 2}}},
		{Name: "r_total", Help: "r", Type: "counter", Samples: []Sample{
			{Name: "r_total", Labels: map[string]string{"code": "200"}, Value: 1},
		}},
	}
	b := []Family{
		{Name: "r_total", Help: "r", Type: "counter", Samples: []Sample{
			{Name: "r_total", Labels: map[string]string{"code": "500"}, Value: 4},
			{Name: "r_total", Labels: map[string]string{"code": "200"}, Value: 0.5},
		}},
		{Name: "s", Help: "only here", Type: "gauge", Samples: []Sample{{Name: "s", Value: 1e6}}},
		{Name: "q_total", Help: "second", Type: "counter", Samples: []Sample{{Name: "q_total", Value: 3}}},
	}
	var out strings.Builder
	if _, err := WriteText(&out, Merge(a, b)); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP q_total first
# TYPE q_total counter
q_total 5
# HELP r_total r
# TYPE r_total counter
r_total{code="200"} 1.5
r_total{code="500"} 4
# HELP s only here
# TYPE s gauge
s 1e+06
`
	if out.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", out.String(), want)
	}
}
