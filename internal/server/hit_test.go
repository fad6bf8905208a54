package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/relation"
	"repro/internal/workload"
)

const allEdges = "(x, y). E(x, y)"

// hitServer serves the complete graph on n nodes with the n²-row answer of
// allEdges already in the result cache.
func hitServer(tb testing.TB, n int) (*Server, string) {
	tb.Helper()
	s, ts := newTestServer(tb, Config{Databases: map[string]*database.Database{"big": streamBench(tb, n)}})
	if code, resp, _ := postQuery(tb, ts, QueryRequest{Database: "big", Query: allEdges}); code != http.StatusOK || resp.Count != n*n {
		tb.Fatalf("warming the cache: status %d, count %d", code, resp.Count)
	}
	return s, ts.URL + "/query"
}

// benchmarkHit drains one cached 4,096-row answer per iteration over a real
// loopback connection.
func benchmarkHit(b *testing.B, stream bool) {
	_, url := hitServer(b, 64)
	body, _ := json.Marshal(QueryRequest{Database: "big", Query: allEdges, Stream: stream})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n < 4096*5 {
			b.Fatalf("status %d, %d bytes, err %v", resp.StatusCode, n, err)
		}
	}
}

func BenchmarkHitJSON(b *testing.B)   { benchmarkHit(b, false) }
func BenchmarkHitStream(b *testing.B) { benchmarkHit(b, true) }

// TestHitAllocsIndependentOfAnswerSize pins the hit path's shape, JSON and
// NDJSON: the first hit renders the answer's rows once into its entry's text
// (AllocsPerRun's warm-up call), and every later hit writes those bytes — as
// the JSON array, or cut into lines in a pooled buffer — so a 4,096-row hit
// allocates what a 16-row one does, up to the recorder growing its body.
func TestHitAllocsIndependentOfAnswerSize(t *testing.T) {
	for _, stream := range []bool{false, true} {
		allocs := func(n int) float64 {
			s, _ := hitServer(t, n)
			h := s.Handler()
			body, _ := json.Marshal(QueryRequest{Database: "big", Query: allEdges, Stream: stream})
			return testing.AllocsPerRun(50, func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			})
		}
		small, large := allocs(4), allocs(64)
		t.Logf("stream=%v: allocations per cached hit: %.0f for 16 rows, %.0f for 4096", stream, small, large)
		if large-small > 8 || large > 150 {
			t.Errorf("stream=%v: a 4096-row hit allocates %.0f times, a 16-row one %.0f: want them within 8, and under 150", stream, large, small)
		}
	}
}

// TestHitAllocs pins what a hit costs the handler in allocations, JSON and
// NDJSON, under bvqd's default flags (deadlines, the flight recorder tracing
// every request), request and recorder included: the body is scanned, not
// decoded by reflection; the envelope, header and trailer are appended; no
// deadline timer starts for an answer written from its stored text; and the
// trace lives in one allocation. The bounds are the counts under -race, how
// `make check` runs it, plus about 10 %.
func TestHitAllocs(t *testing.T) {
	for _, c := range []struct {
		stream bool
		max    float64
	}{{false, 50}, {true, 47}} {
		s, err := New(Config{
			Databases:      map[string]*database.Database{"big": streamBench(t, 4)},
			DefaultTimeout: 10 * time.Second, MaxTimeout: time.Minute, SlowQuery: time.Second, TraceBufferSize: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		body, _ := json.Marshal(QueryRequest{Database: "big", Query: "(x, y). E(x, y) & E(y, x)", Stream: c.stream})
		got := testing.AllocsPerRun(100, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		})
		t.Logf("stream=%v: %.0f allocations per hit", c.stream, got)
		if got > c.max {
			t.Errorf("stream=%v: a hit allocates %.0f times, want at most %.0f", c.stream, got, c.max)
		}
	}
}

// TestHitRendersItsOwnDomain: two databases whose E is equal in index space,
// over the domains {0…4} and {10…14}, share one result entry. Each must still
// answer in its own values after both have hit it, though the entry's text
// holds the values of whichever hit rendered it.
func TestHitRendersItsOwnDomain(t *testing.T) {
	dbs := map[string]*database.Database{}
	for name, base := range map[string]int{"low": 0, "high": 10} {
		b := database.NewBuilder().Relation("E", 2)
		for i := 0; i < 5; i++ {
			b.Domain(base + i)
		}
		for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 0}} {
			b.Add("E", base+e[0], base+e[1])
		}
		db, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		dbs[name] = db
	}
	s, ts := newTestServer(t, Config{Databases: dbs})
	for i, name := range []string{"low", "high", "low", "high"} {
		req := QueryRequest{Database: name, Query: allEdges}
		fresh := req
		fresh.NoCache = true
		_, want, _ := postQuery(t, ts, fresh)
		_, hit, _ := postQuery(t, ts, req)
		req.Stream = true
		hdr, rows, _ := postStream(t, ts, req)
		if !reflect.DeepEqual(hit.Answer, want.Answer) || !reflect.DeepEqual(rows, want.Answer) {
			t.Fatalf("%s: JSON %v, NDJSON %v, want the no_cache answer %v", name, hit.Answer, rows, want.Answer)
		}
		if !hdr.ResultCached || i > 0 && !hit.ResultCached {
			t.Fatalf("%s: JSON cached=%v, NDJSON cached=%v: want the shared entry hit", name, hit.ResultCached, hdr.ResultCached)
		}
	}
	if s.results.Len() != 1 {
		t.Fatalf("%d entries: want the two databases to share one", s.results.Len())
	}
}

// TestHitOverTextCapUsesCursor: an entry of more than maxTextRows rows keeps
// no text, and its hits, JSON and NDJSON, render through the cursor.
// No test database is worth such an answer, so it is stored by hand, through
// the one store call.
func TestHitOverTextCapUsesCursor(t *testing.T) {
	const n, base = 257, 1000 // 257² > maxTextRows
	b := database.NewBuilder().Relation("E", 2).Add("E", base, base+1)
	for i := 0; i < n; i++ {
		b.Domain(base + i)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"g": db}})
	postQuery(t, ts, QueryRequest{Database: "g", Query: allEdges})
	want := make([][]int, maxTextRows+1)
	tuples := make([]relation.Tuple, len(want))
	for i := range want {
		tuples[i] = relation.Tuple{i / n, i % n}
		want[i] = []int{base + i/n, base + i%n}
	}
	big, err := relation.SparseOf(2, n, tuples...)
	if err != nil {
		t.Fatal(err)
	}
	key := resultKey(t, db, QueryRequest{Database: "g", Query: allEdges})
	res, ok := s.results.Peek(key)
	if !ok {
		t.Fatal("the first read stored nothing")
	}
	res.Answer = big
	s.store(key, res, n)
	for range 2 {
		_, hit, _ := postQuery(t, ts, QueryRequest{Database: "g", Query: allEdges})
		hdr, rows, trailer := postStream(t, ts, QueryRequest{Database: "g", Query: allEdges, Stream: true})
		if !hit.ResultCached || !hdr.ResultCached || hit.Count != len(want) || trailer.Streamed != int64(len(want)) ||
			!reflect.DeepEqual(hit.Answer, want) || !reflect.DeepEqual(rows, want) {
			t.Fatalf("over the cap: cached %v/%v, count %d, streamed %d, want %d rows from the entry",
				hit.ResultCached, hdr.ResultCached, hit.Count, trailer.Streamed, len(want))
		}
	}
	if res, _ := s.results.Peek(key); res.Text != nil {
		if text, _ := res.Text.Load(nil); text != nil {
			t.Fatalf("an entry of %d rows keeps %d bytes of text", len(want), len(text))
		}
	}
}

const closure = "(x, y). [lfp T(x, y). E(x, y) | exists z. (E(x, z) & T(z, y))](x, y)"

// missServer serves a forest of 16-node paths on n nodes, whose transitive
// closure — 120 pairs a path — is what a miss evaluates: sparse-routed, the
// serving benchmark's churn family.
func missServer(tb testing.TB, n int) (*Server, string) {
	tb.Helper()
	s, ts := newTestServer(tb, Config{Databases: map[string]*database.Database{"forest": workload.ForestGraph(n, 16)}})
	return s, ts.URL + "/query"
}

// benchmarkMiss evaluates and drains one 15,000-row closure per iteration over
// a real loopback connection: no_cache, so every iteration is the whole miss.
func benchmarkMiss(b *testing.B, stream bool) {
	_, url := missServer(b, 2000)
	body, _ := json.Marshal(QueryRequest{Database: "forest", Query: closure, Stream: stream, NoCache: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n < 15000*5 {
			b.Fatalf("status %d, %d bytes, err %v", resp.StatusCode, n, err)
		}
	}
}

func BenchmarkMissJSON(b *testing.B)   { benchmarkMiss(b, false) }
func BenchmarkMissStream(b *testing.B) { benchmarkMiss(b, true) }

// TestMissAllocsIndependentOfAnswerSize pins the miss path's shape, JSON and
// NDJSON: the executor's head is the answer — no tuple of it is decoded into a
// map on the way to the writer — so a 15,000-row miss allocates a few hundred
// times more than a 480-row one (longer stage loops' blocks, the recorder
// growing its body), not twice per row.
func TestMissAllocsIndependentOfAnswerSize(t *testing.T) {
	for _, stream := range []bool{false, true} {
		allocs := func(n int) float64 {
			s, _ := missServer(t, n)
			h := s.Handler()
			body, _ := json.Marshal(QueryRequest{Database: "forest", Query: closure, Stream: stream, NoCache: true})
			return testing.AllocsPerRun(10, func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK || rec.Body.Len() < n/16*120*5 {
					t.Fatalf("status %d, %d bytes", rec.Code, rec.Body.Len())
				}
			})
		}
		small, large := allocs(64), allocs(2000)
		t.Logf("stream=%v: allocations per miss: %.0f for 480 rows, %.0f for 15000", stream, small, large)
		if large-small > 1000 {
			t.Errorf("stream=%v: a 15000-row miss allocates %.0f times, a 480-row one %.0f: want them within 1000 (0.07 a row)", stream, large, small)
		}
	}
}

// flushCounter is a recorder that counts Flush calls and keeps what the
// first one sent.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
	first   string
}

func (f *flushCounter) Flush() {
	if f.flushes++; f.flushes == 1 {
		f.first = f.Body.String()
	}
}

// TestStreamDeliveryContract pins what the NDJSON writer flushes when: the
// header and the first row at once, in one flush — a client has both in hand
// while the server is still held before row 2 — and the rest in a number of
// flushes bounded by the answer's bytes and the drain's duration, not its
// rows.
func TestStreamDeliveryContract(t *testing.T) {
	s, url := hitServer(t, 64)
	body, _ := json.Marshal(QueryRequest{Database: "big", Query: allEdges, Stream: true})

	atRow2, release := make(chan struct{}), make(chan struct{})
	s.testHookOnStreamRow = func(row int) {
		if row == 1 {
			close(atRow2)
			<-release
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-atRow2
	first := make(chan string)
	br := bufio.NewReader(resp.Body)
	go func() {
		hdr, _ := br.ReadString('\n')
		row, _ := br.ReadString('\n')
		first <- hdr + row
	}()
	select {
	case got := <-first:
		if !strings.HasPrefix(got, `{"request_id":`) || !strings.HasSuffix(got, "}\n[0,0]\n") {
			t.Fatalf("held before row 2, the client has %q; want the header and row 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held before row 2, the client has not received the header and row 1")
	}
	close(release)
	rest, err := io.ReadAll(br)
	if err != nil || bytes.Count(rest, []byte("\n")) != 4096 { // 4095 rows and the trailer
		t.Fatalf("rest of the stream: %d lines, err %v", bytes.Count(rest, []byte("\n")), err)
	}

	s, _ = hitServer(t, 64) // a server without the hook
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	start := time.Now()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	// Header with the first row, trailer; one per full buffer; one per age
	// period.
	bound := 2 + rec.Body.Len()/streamFlushBytes + int(time.Since(start)/streamFlushAge)
	if lines := bytes.Count(rec.Body.Bytes(), []byte("\n")); lines != 4098 || rec.flushes > bound {
		t.Fatalf("a cached 4096-row drain wrote %d lines in %d flushes; want 4098 lines in at most %d", lines, rec.flushes, bound)
	}
	if lines := strings.SplitAfter(rec.first, "\n"); len(lines) != 3 || lines[2] != "" ||
		!strings.HasPrefix(lines[0], `{"request_id":`) || lines[1] != "[0,0]\n" {
		t.Fatalf("the first flush sent %q; want the header and row 1", rec.first)
	}
}

// TestChurnServesCompactAnswers checks the two ways a cached answer survives
// an update — an untouched entry served under its unchanged key, a touched one
// maintained by the first read after it — against a recompute: JSON, a window
// of it, and the stream agree row for row.
func TestChurnServesCompactAnswers(t *testing.T) {
	db, err := database.Parse(`
domain = {1, 2, 3, 4, 5, 6, 7, 8, 9}
E/2 = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)}
F/2 = {(9, 8), (8, 7), (7, 6), (6, 5), (8, 5), (5, 9)}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"g": db}})
	const twoHopF = "(x, y). exists z. F(x, z) & F(z, y)"
	query := func(req QueryRequest) QueryResponse {
		t.Helper()
		req.Database, req.Engine = "g", "compiled"
		code, resp, bad := postQuery(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, code, bad.Error)
		}
		return resp
	}
	query(QueryRequest{Query: closure})
	query(QueryRequest{Query: twoHopF})
	code, _, bad := postUpdate(t, ts, "g", UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{6, 8}, {7, 1}}}}})
	if code != http.StatusOK {
		t.Fatalf("update: status %d, err %q", code, bad.Error)
	}
	// The closure's first read maintains its entry; the F text's key is
	// unchanged.
	if q := query(QueryRequest{Query: closure}); q.ResultCached || q.Stats == nil || q.Stats.MaintainedFromDelta != 1 {
		t.Fatalf("closure after the update: cached=%v stats %+v, want a maintained miss", q.ResultCached, q.Stats)
	}
	if q := query(QueryRequest{Query: twoHopF}); !q.ResultCached {
		t.Fatal("the F text's entry is not served after an update of E")
	}
	for _, text := range []string{closure, twoHopF} {
		want := query(QueryRequest{Query: text, NoCache: true})
		if len(want.Answer) < 7 {
			t.Fatalf("%s: recompute has only %d rows", text, len(want.Answer))
		}
		hit := query(QueryRequest{Query: text})
		if !hit.ResultCached || !reflect.DeepEqual(hit.Answer, want.Answer) || hit.Count != want.Count {
			t.Errorf("%s: cached=%v\n hit       %v\n recompute %v", text, hit.ResultCached, hit.Answer, want.Answer)
		}
		win := query(QueryRequest{Query: text, Offset: 2, Limit: 5})
		if !win.ResultCached || !reflect.DeepEqual(win.Answer, want.Answer[2:7]) || win.Count != want.Count {
			t.Errorf("%s: window 2+5 of the hit %v, of the recompute %v", text, win.Answer, want.Answer[2:7])
		}
		hdr, rows, trailer := postStream(t, ts, QueryRequest{Database: "g", Engine: "compiled", Query: text, Stream: true})
		if !hdr.ResultCached || !reflect.DeepEqual(rows, want.Answer) || trailer.Count == nil || *trailer.Count != want.Count {
			t.Errorf("%s: cached=%v\n stream    %v\n recompute %v", text, hdr.ResultCached, rows, want.Answer)
		}
	}
}
