package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/server"
)

// --- ring ---

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = QueryKey("graph", fmt.Sprintf("(x, y). E%d(x, y)", i))
	}
	return keys
}

func TestRingDeterministic(t *testing.T) {
	a := NewRing(64, []string{"r1", "r2", "r3"})
	b := NewRing(64, []string{"r3", "r1", "r2"}) // order must not matter
	for _, k := range ringKeys(500) {
		if ao, bo := a.Lookup(k, 1)[0], b.Lookup(k, 1)[0]; ao != bo {
			t.Fatalf("owner(%q): %q vs %q for permuted member order", k, ao, bo)
		}
	}
	pref := a.Lookup(ringKeys(1)[0], 0)
	if len(pref) != 3 {
		t.Fatalf("full preference list has %d members, want 3", len(pref))
	}
	seen := map[string]bool{}
	for _, m := range pref {
		if seen[m] {
			t.Fatalf("duplicate member %q in preference list", m)
		}
		seen[m] = true
	}
}

func TestRingMinimalMovement(t *testing.T) {
	keys := ringKeys(2000)
	full := NewRing(64, []string{"r1", "r2", "r3"})
	without := NewRing(64, []string{"r1", "r2"})

	moved := 0
	for _, k := range keys {
		was, now := full.Lookup(k, 1)[0], without.Lookup(k, 1)[0]
		if was != "r3" && was != now {
			t.Fatalf("key %q moved %q→%q though its owner %q was not removed", k, was, now, was)
		}
		if was == "r3" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the removed member; test is vacuous")
	}
	// Adding a member only moves keys TO the new member.
	plus := NewRing(64, []string{"r1", "r2", "r3", "r4"})
	for _, k := range keys {
		was, now := full.Lookup(k, 1)[0], plus.Lookup(k, 1)[0]
		if now != was && now != "r4" {
			t.Fatalf("key %q moved %q→%q on adding r4", k, was, now)
		}
	}
}

// --- forwarding ---

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

func newTestRouter(t *testing.T, cfg Config) (*Router, *serve.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, serveLoop(t, rt.Handler())
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestRetryThenSucceedOn429(t *testing.T) {
	var calls atomic.Int32
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"answer":[[1,2]]}`)
	}))
	defer replica.Close()

	rt, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})
	resp, body := postJSON(t, ts.URL+"/query", `{"database":"graph","query":"(x, y). E(x, y)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after retry, want 200 (body %s)", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`[[1,2]]`)) {
		t.Fatalf("unexpected body %s", body)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("replica saw %d calls, want 2 (429 then success)", got)
	}
	if rt.metrics.retries.Value() == 0 {
		t.Fatal("retry not counted")
	}
}

func TestAllReplicasShedRelays429(t *testing.T) {
	shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"overloaded"}`)
	})
	r1, r2 := httptest.NewServer(shed), httptest.NewServer(shed)
	defer r1.Close()
	defer r2.Close()

	// A 7s Retry-After exceeds the 10ms wait cap, so the router gives up
	// fast and relays the shed instead of stalling the client.
	rt, ts := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}, MaxRetryWait: 10 * time.Millisecond})
	resp, _ := postJSON(t, ts.URL+"/query", `{"database":"graph","query":"(x, y). E(x, y)"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want relayed 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After %q not relayed", resp.Header.Get("Retry-After"))
	}
	if rt.metrics.shedRelays.Value() != 1 {
		t.Fatalf("shed relays = %d, want 1", rt.metrics.shedRelays.Value())
	}
}

// TestUpstreamConnectionsReused pins the router's idle connections per
// member (upstreamIdleConns). More callers than net/http's default of two
// idle connections per host hop in rounds — all in flight together, then all
// idle together — and must find their connections again instead of
// re-dialling every round.
func TestUpstreamConnectionsReused(t *testing.T) {
	const callers, rounds = 6, 20
	var dials, hopsSeen atomic.Int32
	replica := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold the hop until every caller of its round is in flight.
		round := (hopsSeen.Add(1) + callers - 1) / callers
		for hopsSeen.Load() < round*callers {
			time.Sleep(100 * time.Microsecond)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"answer":[]}`)
	}))
	replica.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	replica.Start()
	defer replica.Close()
	rt, _ := newTestRouter(t, Config{Replicas: []string{replica.URL}})

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
					strings.NewReader(`{"database":"graph","query":"(x, y). E(x, y)"}`)))
				if rec.Code != http.StatusOK {
					t.Errorf("hop answered %d: %s", rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
	}
	if got := dials.Load(); got > callers {
		t.Fatalf("%d callers × %d rounds opened %d upstream connections, want at most %d", callers, rounds, got, callers)
	}
}

// testDB is a 4-node graph with a shortcut, enough for twoHop to have a
// multi-tuple answer.
func testDB(t testing.TB) *database.Database {
	t.Helper()
	b := database.NewBuilder()
	b.Relation("E", 2)
	for i := 0; i < 4; i++ {
		b.Domain(i)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		b.Add("E", e[0], e[1])
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const twoHop = "(x, y). exists z. E(x, z) & E(z, y)"

// TestStreamPassThroughByteIdentical drives a real bvqd replica through the
// router and asserts the streamed NDJSON rows are byte-identical to a
// direct query (header and trailer carry per-request ids and timings, so
// they are compared structurally instead).
func TestStreamPassThroughByteIdentical(t *testing.T) {
	srv, err := server.New(server.Config{Databases: map[string]*database.Database{"graph": testDB(t)}})
	if err != nil {
		t.Fatal(err)
	}
	replica := serveLoop(t, srv.Handler())
	_, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})

	req := `{"database":"graph","query":"` + twoHop + `","stream":true,"no_cache":true}`
	direct, directBody := postJSON(t, replica.URL+"/query", req)
	routed, routedBody := postJSON(t, ts.URL+"/query", req)
	if direct.StatusCode != 200 || routed.StatusCode != 200 {
		t.Fatalf("statuses %d/%d", direct.StatusCode, routed.StatusCode)
	}
	if ct := routed.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q not passed through", ct)
	}
	dl := strings.Split(strings.TrimRight(string(directBody), "\n"), "\n")
	rl := strings.Split(strings.TrimRight(string(routedBody), "\n"), "\n")
	if len(dl) != len(rl) {
		t.Fatalf("line counts differ: direct %d, routed %d", len(dl), len(rl))
	}
	// Tuple rows (everything between header and trailer) must be
	// byte-identical.
	for i := 1; i < len(dl)-1; i++ {
		if dl[i] != rl[i] {
			t.Fatalf("row %d differs:\ndirect %s\nrouted %s", i, dl[i], rl[i])
		}
	}
	var dTrailer, rTrailer map[string]any
	if err := json.Unmarshal([]byte(dl[len(dl)-1]), &dTrailer); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(rl[len(rl)-1]), &rTrailer); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"trailer", "count", "streamed"} {
		if fmt.Sprint(dTrailer[k]) != fmt.Sprint(rTrailer[k]) {
			t.Fatalf("trailer %q differs: %v vs %v", k, dTrailer[k], rTrailer[k])
		}
	}
	if rTrailer["error"] != nil {
		t.Fatalf("routed trailer has error %v", rTrailer["error"])
	}
}

// TestStreamUpstreamDeathAppendsTrailer pins the router's repair duty: when
// the replica dies after the first byte without emitting its trailer, the
// router appends an error trailer naming the replica, so downstream clients
// can always tell truncation from completion.
func TestStreamUpstreamDeathAppendsTrailer(t *testing.T) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"request_id":"x","width":2}`+"\n[0,1]\n")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // cut the connection mid-stream
	}))
	defer replica.Close()
	rt, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})

	resp, body := postJSON(t, ts.URL+"/query", `{"database":"graph","query":"(x, y). E(x, y)","stream":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want committed 200", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	last := lines[len(lines)-1]
	var trailer struct {
		Trailer bool   `json:"trailer"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || !trailer.Trailer {
		t.Fatalf("last line %q is not a trailer", last)
	}
	if !strings.Contains(trailer.Error, replica.URL) {
		t.Fatalf("repair trailer %q does not name the replica", trailer.Error)
	}
	if lines[1] != "[0,1]" {
		t.Fatalf("row not passed through before the cut: %q", lines[1])
	}
	if rt.metrics.streamRepairs.Value() != 1 {
		t.Fatalf("stream repairs = %d, want 1", rt.metrics.streamRepairs.Value())
	}
}

func TestUpdateFanoutPartialFailureNamesReplica(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"version":2,"fingerprint":"00000000000000ff"}`)
	}))
	defer good.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on

	rt, ts := newTestRouter(t, Config{Replicas: []string{good.URL, dead.URL}})
	resp, body := postJSON(t, ts.URL+"/db/graph/update", `{"updates":[{"relation":"E","insert":[[3,0]]}]}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 partial failure (body %s)", resp.StatusCode, body)
	}
	var report struct {
		Error   string            `json:"error"`
		Failed  map[string]string `json:"failed"`
		Applied []string          `json:"applied"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.Error, dead.URL) {
		t.Fatalf("error %q does not name the failed replica %s", report.Error, dead.URL)
	}
	if _, ok := report.Failed[dead.URL]; !ok {
		t.Fatalf("failed map %v missing %s", report.Failed, dead.URL)
	}
	if len(report.Applied) != 1 || report.Applied[0] != good.URL {
		t.Fatalf("applied %v, want [%s]", report.Applied, good.URL)
	}
	if rt.metrics.fanoutFailures.Value() != 1 {
		t.Fatal("fan-out failure not counted")
	}
}

func TestUpdateFanoutAggregatesVersions(t *testing.T) {
	mk := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"version":3,"fingerprint":"00000000000000aa"}`)
		}))
	}
	r1, r2 := mk(), mk()
	defer r1.Close()
	defer r2.Close()
	_, ts := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}})
	resp, body := postJSON(t, ts.URL+"/db/graph/update", `{"updates":[{"relation":"E","insert":[[3,0]]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body %s)", resp.StatusCode, body)
	}
	var agg updateAggregate
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Version != 3 || agg.Fingerprint != "00000000000000aa" || agg.Diverged {
		t.Fatalf("aggregate %+v", agg)
	}
	if len(agg.Replicas) != 2 {
		t.Fatalf("replicas %v, want both", agg.Replicas)
	}
}

// TestUpdateFanoutEscapesDatabaseName: the database name is a path segment
// on the way to every replica, so whatever escaping brought it to the
// router takes it on to the replica.
func TestUpdateFanoutEscapesDatabaseName(t *testing.T) {
	seen := make(chan string, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /db/{name}/update", func(w http.ResponseWriter, r *http.Request) {
		seen <- r.PathValue("name")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"version":2,"fingerprint":"00000000000000aa"}`)
	})
	replica := httptest.NewServer(mux)
	defer replica.Close()
	_, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})
	for _, c := range [][2]string{{"graph", "graph"}, {"x%3Fy", "x?y"}, {"a%2Fb", "a/b"}, {"p%25q", "p%q"}, {"a%20b", "a b"}} {
		escaped, name := c[0], c[1]
		resp, body := postJSON(t, ts.URL+"/db/"+escaped+"/update", `{"updates":[{"relation":"E","insert":[[3,0]]}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (body %s)", escaped, resp.StatusCode, body)
		}
		if got := <-seen; got != name {
			t.Fatalf("%s: the replica was asked to update %q, want %q", escaped, got, name)
		}
		var agg updateAggregate
		if err := json.Unmarshal(body, &agg); err != nil || agg.Database != name {
			t.Fatalf("%s: aggregate %s names database %q, want %q", escaped, body, agg.Database, name)
		}
	}
}

func TestHealthEvictionAndReadmission(t *testing.T) {
	var down atomic.Bool
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer replica.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer other.Close()

	rt, _ := newTestRouter(t, Config{
		Replicas:       []string{replica.URL, other.URL},
		HealthInterval: 10 * time.Millisecond,
		HealthFailures: 2,
	})
	waitFor := func(want int64, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rt.healthyCount() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: healthy = %d, want %d", what, rt.healthyCount(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(2, "startup")
	down.Store(true)
	waitFor(1, "eviction")
	// The ring rebalanced: every key is now owned by the survivor.
	for _, k := range ringKeys(50) {
		if owner := rt.ring.Load().Lookup(k, 1)[0]; owner != other.URL {
			t.Fatalf("key %q owned by %q after eviction", k, owner)
		}
	}
	down.Store(false)
	waitFor(2, "readmission")
}

func TestStatsAggregate(t *testing.T) {
	mk := func(queries, hits, version int, fp string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/stats" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprintf(w, `{"uptime_seconds":10,"build":{"go_version":"go1"},"databases":{"g":{"domain_size":4,"version":%d,"fingerprint":%q}},"queries":%d,"result_cache":{"hits":%d}}`,
				version, fp, queries, hits)
		}))
	}
	r1, r2 := mk(2, 3, 1, "aaaa"), mk(5, 1, 2, "bbbb")
	defer r1.Close()
	defer r2.Close()
	_, ts := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Fleet    map[string]any            `json:"fleet"`
		Replicas map[string]map[string]any `json:"replicas"`
		Router   map[string]any            `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// Counters add up; what identifies a replica (its databases' sizes,
	// versions and fingerprints, its uptime, its build) is no fleet sum and
	// stays in each replica's body.
	if hits, _ := out.Fleet["result_cache"].(map[string]any); out.Fleet["queries"] != float64(7) || hits["hits"] != float64(4) {
		t.Fatalf("fleet aggregate %v, want queries 7 and result_cache.hits 4", out.Fleet)
	}
	for _, k := range []string{"databases", "uptime_seconds", "build"} {
		if v, ok := out.Fleet[k]; ok {
			t.Fatalf("fleet aggregate carries %s = %v", k, v)
		}
	}
	if len(out.Replicas) != 2 || out.Replicas[r2.URL]["databases"] == nil || out.Router["members_healthy"] != float64(2) {
		t.Fatalf("replicas=%v router=%v", out.Replicas, out.Router)
	}
}

func TestMetricsAggregateParsesAndSums(t *testing.T) {
	exposition := func(v int) string {
		return fmt.Sprintf("# HELP bvqd_queries_total Total queries.\n# TYPE bvqd_queries_total counter\nbvqd_queries_total %d\n", v)
	}
	mk := func(v int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprint(w, exposition(v))
		}))
	}
	r1, r2 := mk(4), mk(9)
	defer r1.Close()
	defer r2.Close()
	_, ts := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("aggregate exposition does not parse: %v\n%s", err, text)
	}
	found := false
	for _, f := range fams {
		if f.Name == "bvqd_queries_total" {
			found = true
			if len(f.Samples) != 1 || f.Samples[0].Value != 13 {
				t.Fatalf("bvqd_queries_total = %+v, want one sample of 13", f.Samples)
			}
		}
	}
	if !found {
		t.Fatal("fleet aggregate missing bvqd_queries_total")
	}
	if !bytes.Contains(text, []byte("bvqrouter_requests_total")) {
		t.Fatal("router families missing from /metrics")
	}
}

// TestRingHashIsFNV1a holds the in-place hash to hash/fnv's, which placed
// every key before it: a router of this build and one of the last agree.
func TestRingHashIsFNV1a(t *testing.T) {
	for _, k := range append(ringKeys(200), "", "r1#0", "http://127.0.0.1:18081#127") {
		h := fnv.New64a()
		h.Write([]byte(k))
		if got, want := hash64(k), h.Sum64(); got != want {
			t.Fatalf("hash64(%q) = %#x, FNV-1a says %#x", k, got, want)
		}
	}
}

// BenchmarkRingLookup is a request's ring work: the full preference list of a
// three-member fleet into the caller's buffer, at no allocation.
func BenchmarkRingLookup(b *testing.B) {
	ring := NewRing(0, []string{"http://127.0.0.1:18081", "http://127.0.0.1:18082", "http://127.0.0.1:18083"})
	keys := ringKeys(64)
	var buf [8]string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := ring.AppendLookup(buf[:0], keys[i%len(keys)], 0); len(got) != 3 {
			b.Fatalf("preference list %v", got)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ring.AppendLookup(buf[:0], keys[0], 0) }); allocs != 0 {
		b.Fatalf("a ring lookup allocates %v times, want 0", allocs)
	}
}

// hopWriter is a client-side ResponseWriter that keeps the status and counts
// the body: what a hop costs without a recorder's copy of the answer.
type hopWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *hopWriter) Header() http.Header         { return w.h }
func (w *hopWriter) WriteHeader(code int)        { w.code = code }
func (w *hopWriter) Flush()                      {}
func (w *hopWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkHop is one routed /query, router handler to an in-process stub
// replica over loopback and back: an 8 KiB JSON answer with its length, and a
// 1,026-line NDJSON drain (a header, 1,024 rows and a trailer, a hot-* stream's
// shape). The stub's own work is in the figure.
func BenchmarkHop(b *testing.B) {
	answer := []byte(`{"request_id":"r","answer":[`)
	for i := 0; len(answer) < 8<<10-2; i++ {
		answer = fmt.Appendf(answer, "[%d,%d],", i, i+1)
	}
	answer = append(answer[:8<<10-2], "]}"...)
	stream := []byte(`{"request_id":"r","width":2}` + "\n")
	for i := 0; i < 1024; i++ {
		stream = fmt.Appendf(stream, "[%d,%d]\n", i, i+1)
	}
	stream = append(stream, `{"trailer":true,"count":1024}`+"\n"...)
	for _, c := range []struct {
		name, req, ct string
		body          []byte
	}{
		{"json-8KiB", `{"database":"graph","query":"(x, y). E(x, y)"}`, "application/json", answer},
		{"ndjson-1026-lines", streamReq, "application/x-ndjson", stream},
	} {
		b.Run(c.name, func(b *testing.B) {
			replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				w.Header().Set("Content-Type", c.ct)
				if c.ct == "application/json" {
					w.Header().Set("Content-Length", fmt.Sprint(len(c.body)))
				}
				_, _ = w.Write(c.body)
			}))
			defer replica.Close()
			rt, err := New(Config{Replicas: []string{replica.URL}})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			h, w := rt.Handler(), &hopWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(w.h)
				w.code, w.n = 0, 0
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(c.req)))
				if w.code != http.StatusOK || w.n != len(c.body) {
					b.Fatalf("hop answered %d with %d bytes, want 200 with %d", w.code, w.n, len(c.body))
				}
			}
		})
	}
}

// TestClientHangUpCancelsUpstream: a client that hangs up while a replica
// holds its answer closes the router's upstream connection, which cancels
// the replica's request.
func TestClientHangUpCancelsUpstream(t *testing.T) {
	held := make(chan struct{})
	cancelled := make(chan time.Time, 1)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" {
			return
		}
		_, _ = io.ReadAll(r.Body) // net/http watches the client once the body is read
		close(held)
		select {
		case <-r.Context().Done():
			cancelled <- time.Now()
		case <-time.After(10 * time.Second):
		}
	}))
	defer replica.Close()
	_, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})

	nc, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"database":"graph","query":"(x, y). E(x, y)"}`
	if _, err := fmt.Fprintf(nc, "POST /query HTTP/1.1\r\nHost: router\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}
	<-held
	nc.Close()
	hungUp := time.Now()
	select {
	case at := <-cancelled:
		if d := at.Sub(hungUp); d > 10*time.Millisecond+100*time.Millisecond {
			t.Fatalf("the replica's request was cancelled %v after the hang-up", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the replica's request was never cancelled")
	}
}
