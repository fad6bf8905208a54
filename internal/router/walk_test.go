package router

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fleet_metrics.txt from this run")

const (
	streamReq  = `{"database":"graph","query":"(x, y). E(x, y)","stream":true}`
	streamBody = "{\"request_id\":\"r\",\"width\":2}\n[0,1]\n[1,2]\n{\"trailer\":true,\"count\":2}\n"
)

// serveStream answers a stream as bvqd does: header, rows, trailer.
func serveStream(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fmt.Fprint(w, streamBody)
}

func TestStreamRetriesAfterOne429(t *testing.T) {
	var calls atomic.Int32
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded"}`)
			return
		}
		serveStream(w)
	}))
	defer replica.Close()
	rt, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})

	resp, body := postJSON(t, ts.URL+"/query", streamReq)
	if resp.StatusCode != http.StatusOK || string(body) != streamBody {
		t.Fatalf("status %d body %q, want the stream after one retry", resp.StatusCode, body)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("replica saw %d calls, want 2 (429 then the stream)", got)
	}
	if rt.metrics.retries.Value() == 0 || rt.metrics.shedRelays.Value() != 0 {
		t.Fatalf("retries=%d shed relays=%d, want a retry and no relayed shed",
			rt.metrics.retries.Value(), rt.metrics.shedRelays.Value())
	}
}

// TestStreamAllShedRelaysLast429: when every replica sheds a stream, the
// client gets the 429 of the last replica the walk tried, with that
// replica's Retry-After, body and name.
func TestStreamAllShedRelaysLast429(t *testing.T) {
	shedder := func(retryAfter string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", retryAfter)
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error":"overloaded, retry in %s s"}`, retryAfter)
		}))
	}
	r1, r2 := shedder("7"), shedder("8")
	defer r1.Close()
	defer r2.Close()
	rt, ts := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}, MaxRetryWait: 10 * time.Millisecond})

	cands := rt.candidates(QueryKey("graph", "(x, y). E(x, y)"))
	last := cands[len(cands)-1].url
	want := map[string]string{r1.URL: "7", r2.URL: "8"}[last]

	resp, body := postJSON(t, ts.URL+"/query", streamReq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the relayed 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Bvqrouter-Replica"); got != last {
		t.Fatalf("X-Bvqrouter-Replica %q, want the last replica tried %q", got, last)
	}
	if got := resp.Header.Get("Retry-After"); got != want {
		t.Fatalf("Retry-After %q, want %q", got, want)
	}
	if got, wantBody := string(body), fmt.Sprintf(`{"error":"overloaded, retry in %s s"}`, want); got != wantBody {
		t.Fatalf("body %q, want %q", got, wantBody)
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("Content-Type %q not relayed", resp.Header.Get("Content-Type"))
	}
	if rt.metrics.shedRelays.Value() != 1 {
		t.Fatalf("shed relays = %d, want 1", rt.metrics.shedRelays.Value())
	}
}

// TestStreamPreStreamErrorRelayedVerbatim: a replica's error before the
// first row is authoritative: relayed as it came, not retried elsewhere.
func TestStreamPreStreamErrorRelayedVerbatim(t *testing.T) {
	const errBody = `{"error":"parse error: expected '.' after quantified variable","request_id":"q-1"}` + "\n"
	var calls atomic.Int32
	reject := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Request-Id", "q-1")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, errBody)
	})
	r1, r2 := httptest.NewServer(reject), httptest.NewServer(reject)
	defer r1.Close()
	defer r2.Close()
	rt, ts := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}})
	first := rt.candidates(QueryKey("graph", "(x, y). E(x, y)"))[0].url

	resp, body := postJSON(t, ts.URL+"/query", streamReq)
	if resp.StatusCode != http.StatusBadRequest || string(body) != errBody {
		t.Fatalf("status %d body %q, want the replica's 400 verbatim", resp.StatusCode, body)
	}
	for k, want := range map[string]string{"Content-Type": "application/json", "X-Request-Id": "q-1", "X-Bvqrouter-Replica": first} {
		if got := resp.Header.Get(k); got != want {
			t.Fatalf("%s %q, want %q", k, got, want)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("replicas saw %d calls, want 1: an error is not retried", got)
	}
}

// TestStreamWaitsOutTickingCooldown: with the only replica cooling down
// after a shed, a stream waits for the cooldown and is then served.
func TestStreamWaitsOutTickingCooldown(t *testing.T) {
	var calls atomic.Int32
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		serveStream(w)
	}))
	defer replica.Close()
	rt, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})

	const cool = 150 * time.Millisecond
	start := time.Now()
	rt.members[0].coolUntil.Store(start.Add(cool).UnixNano())
	resp, body := postJSON(t, ts.URL+"/query", streamReq)
	if resp.StatusCode != http.StatusOK || string(body) != streamBody {
		t.Fatalf("status %d body %q, want the stream once the cooldown ended", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed < cool {
		t.Fatalf("served after %v, inside the %v cooldown", elapsed, cool)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("replica saw %d calls, want 1", got)
	}
}

// shedThen answers 429 with Retry-After 1 to its first shed calls and serves a
// stream after that; calls counts every request.
func shedThen(shed int32, calls *atomic.Int32) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= shed {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded"}`)
			return
		}
		serveStream(w)
	}))
}

// TestRetryPassAfterEveryReplicaShed: under the router defaults (one extra
// pass, a 3 s cap), a pass in which every replica shed is followed by a wait
// for the earliest cooldown and a second pass, which is served.
func TestRetryPassAfterEveryReplicaShed(t *testing.T) {
	var c1, c2 atomic.Int32
	r1, r2 := shedThen(1, &c1), shedThen(1, &c2)
	defer r1.Close()
	defer r2.Close()
	_, ts := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}})

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/query", streamReq)
	if resp.StatusCode != http.StatusOK || string(body) != streamBody {
		t.Fatalf("status %d body %q, want the stream on the second pass", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("served after %v, inside the 1s cooldown", elapsed)
	}
	if got := c1.Load() + c2.Load(); got != 3 {
		t.Fatalf("replicas saw %d calls, want 3 (two sheds, then the stream)", got)
	}
}

// TestLastPassRelaysWithoutWaiting: when every replica keeps shedding, the
// router waits once between its two passes and relays the last 429 as soon as
// the second pass has shed too.
func TestLastPassRelaysWithoutWaiting(t *testing.T) {
	var c1, c2 atomic.Int32
	r1, r2 := shedThen(1<<30, &c1), shedThen(1<<30, &c2)
	defer r1.Close()
	defer r2.Close()
	_, ts := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}})

	start := time.Now()
	resp, _ := postJSON(t, ts.URL+"/query", streamReq)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the relayed 429", resp.StatusCode)
	}
	if c1.Load() != 2 || c2.Load() != 2 {
		t.Fatalf("replicas saw %d and %d calls, want 2 each (one per pass)", c1.Load(), c2.Load())
	}
	if elapsed < time.Second || elapsed >= 2*time.Second {
		t.Fatalf("relayed after %v, want one 1s wait and no second", elapsed)
	}
}

// fleetFixtures are three replicas' /metrics pages: series that only some
// replicas have, families in different orders, an escaped label value and
// help text, fractional sums. Every sum stays below 10⁶.
var fleetFixtures = []string{
	`# HELP bvqd_queries_total Requests received on /query.
# TYPE bvqd_queries_total counter
bvqd_queries_total 40
# HELP bvqd_responses_total Responses to /query by HTTP status code.
# TYPE bvqd_responses_total counter
bvqd_responses_total{code="200"} 30
bvqd_responses_total{code="429"} 10
# HELP bvqd_query_latency_seconds End-to-end /query handling latency by evaluation engine.
# TYPE bvqd_query_latency_seconds histogram
bvqd_query_latency_seconds_bucket{engine="compiled",le="0.001"} 3
bvqd_query_latency_seconds_bucket{engine="compiled",le="0.01"} 5
bvqd_query_latency_seconds_bucket{engine="compiled",le="+Inf"} 6
bvqd_query_latency_seconds_sum{engine="compiled"} 0.0625
bvqd_query_latency_seconds_count{engine="compiled"} 6
# HELP bvqd_queue_depth Requests waiting for an evaluation slot.
# TYPE bvqd_queue_depth gauge
bvqd_queue_depth 2
`,
	`# HELP bvqd_queries_total Requests received on /query.
# TYPE bvqd_queries_total counter
bvqd_queries_total 13
# HELP bvqd_responses_total Responses to /query by HTTP status code.
# TYPE bvqd_responses_total counter
bvqd_responses_total{code="200"} 12
bvqd_responses_total{code="400"} 1
# HELP bvqd_query_latency_seconds End-to-end /query handling latency by evaluation engine.
# TYPE bvqd_query_latency_seconds histogram
bvqd_query_latency_seconds_bucket{engine="bottomup",le="0.001"} 0
bvqd_query_latency_seconds_bucket{engine="bottomup",le="0.01"} 1
bvqd_query_latency_seconds_bucket{engine="bottomup",le="+Inf"} 1
bvqd_query_latency_seconds_sum{engine="bottomup"} 0.125
bvqd_query_latency_seconds_count{engine="bottomup"} 1
bvqd_query_latency_seconds_bucket{engine="compiled",le="0.001"} 10
bvqd_query_latency_seconds_bucket{engine="compiled",le="0.01"} 11
bvqd_query_latency_seconds_bucket{engine="compiled",le="+Inf"} 12
bvqd_query_latency_seconds_sum{engine="compiled"} 0.25
bvqd_query_latency_seconds_count{engine="compiled"} 12
# HELP bvqd_queue_depth Requests waiting for an evaluation slot.
# TYPE bvqd_queue_depth gauge
bvqd_queue_depth 0
# HELP bvqd_cache_invalidations_total Cached results dropped \\ by reason.
# TYPE bvqd_cache_invalidations_total counter
bvqd_cache_invalidations_total{reason="say \"hi\" \\ bye"} 2
`,
	`# HELP bvqd_queue_depth Requests waiting for an evaluation slot.
# TYPE bvqd_queue_depth gauge
bvqd_queue_depth 5
# HELP bvqd_queries_total Requests received on /query.
# TYPE bvqd_queries_total counter
bvqd_queries_total 7
# HELP bvqd_cache_invalidations_total Cached results dropped \\ by reason.
# TYPE bvqd_cache_invalidations_total counter
bvqd_cache_invalidations_total{reason="no_plan"} 4
bvqd_cache_invalidations_total{reason="say \"hi\" \\ bye"} 1
# HELP bvqd_uptime_seconds Seconds since the server started.
# TYPE bvqd_uptime_seconds gauge
bvqd_uptime_seconds 123456
`,
}

// fleetOf starts one replica per exposition, serving it on GET /metrics.
func fleetOf(t *testing.T, pages ...string) []string {
	t.Helper()
	var urls []string
	for _, page := range pages {
		replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprint(w, page)
		}))
		t.Cleanup(replica.Close)
		urls = append(urls, replica.URL)
	}
	return urls
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetMetricsGolden pins the router's whole /metrics page over three
// replicas byte for byte: its own families, then the replicas' summed in
// first-seen order. Regenerate with -update only when the page is meant to
// change.
func TestFleetMetricsGolden(t *testing.T) {
	_, ts := newTestRouter(t, Config{Replicas: fleetOf(t, fleetFixtures...)})
	got := getBody(t, ts.URL+"/metrics")
	const path = "testdata/fleet_metrics.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet /metrics differs from %s:\n%s", path, got)
	}
}

// TestFleetSumsSpelledLikeBvqd: a fleet sum of 10⁶ or more is written the
// way bvqd writes its own values (1.5e+06), and reads back as the same float.
func TestFleetSumsSpelledLikeBvqd(t *testing.T) {
	const page = "# HELP bvqd_queries_total Requests received on /query.\n# TYPE bvqd_queries_total counter\nbvqd_queries_total 750000\n"
	_, ts := newTestRouter(t, Config{Replicas: fleetOf(t, page, page)})
	text := getBody(t, ts.URL+"/metrics")
	if !bytes.Contains(text, []byte("\nbvqd_queries_total 1.5e+06\n")) {
		t.Fatalf("fleet sum not spelled 1.5e+06:\n%s", text)
	}
	fams, err := metrics.ParseText(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams[len(fams)-1].Samples[0].Value; got != 1.5e6 {
		t.Fatalf("fleet sum reads back as %v", got)
	}
}
