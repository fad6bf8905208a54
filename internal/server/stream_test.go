package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// postStream posts a streamed /query and splits the NDJSON response into
// header, tuple rows and trailer. It fails the test on malformed framing.
func postStream(t testing.TB, ts *serve.Server, req QueryRequest) (StreamHeader, [][]int, StreamTrailer) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr StreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("decoding header %q: %v", sc.Text(), err)
	}
	var rows [][]int
	var trailer StreamTrailer
	sawTrailer := false
	for sc.Scan() {
		line := sc.Bytes()
		if sawTrailer {
			t.Fatalf("line after trailer: %q", line)
		}
		if bytes.Contains(line, []byte(`"trailer":true`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("decoding trailer %q: %v", line, err)
			}
			sawTrailer = true
			continue
		}
		var row []int
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("decoding row %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTrailer {
		t.Fatal("stream ended without a trailer")
	}
	return hdr, rows, trailer
}

// TestStreamMatchesJSON is the wire-level differential: the streamed rows of
// a query are exactly the JSON response's answer, with matching full counts
// in the trailer — and (oneFormDifferential) whoever produced the answer,
// whatever window is read.
func TestStreamMatchesJSON(t *testing.T) {
	t.Run("one form, every producer", oneFormDifferential)
	_, ts := newTestServer(t, Config{})
	code, want, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, NoCache: true})
	if code != http.StatusOK {
		t.Fatalf("JSON status %d", code)
	}
	hdr, rows, trailer := postStream(t, ts, QueryRequest{Database: "graph", Query: twoHop, Stream: true, NoCache: true})
	if hdr.Arity != 2 || hdr.Width != 3 {
		t.Fatalf("header %+v", hdr)
	}
	if !reflect.DeepEqual(append([][]int{}, rows...), want.Answer) {
		t.Fatalf("streamed rows %v, JSON answer %v", rows, want.Answer)
	}
	if trailer.Count == nil || *trailer.Count != want.Count {
		t.Fatalf("trailer count %v, want %d", trailer.Count, want.Count)
	}
	if trailer.Streamed != int64(len(rows)) {
		t.Fatalf("trailer streamed %d, want %d", trailer.Streamed, len(rows))
	}
}

// TestStreamLimitOffset pins the windowing semantics: the streamed rows are
// the window, skipped/streamed are metered, and on counting routes the
// trailer still reports the full cardinality (the satellite-a guarantee).
func TestStreamLimitOffset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, full, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, Engine: "compiled", NoCache: true})
	hdr, rows, trailer := postStream(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Backend: "dense",
		Stream: true, NoCache: true, Limit: 1, Offset: 1})
	if len(rows) != 1 {
		t.Fatalf("windowed stream returned %d rows, want 1", len(rows))
	}
	if rows[0][0] != full.Answer[1][0] || rows[0][1] != full.Answer[1][1] {
		t.Fatalf("offset 1 row = %v, want %v", rows[0], full.Answer[1])
	}
	if trailer.Skipped != 1 || trailer.Streamed != 1 {
		t.Fatalf("trailer skipped/streamed = %d/%d, want 1/1", trailer.Skipped, trailer.Streamed)
	}
	// Every head value counts, so both header and trailer know the full
	// cardinality even though only one tuple was decoded.
	if hdr.Count != full.Count {
		t.Fatalf("header count %d, want %d", hdr.Count, full.Count)
	}
	if trailer.Count == nil || *trailer.Count != full.Count {
		t.Fatalf("trailer count %v, want %d", trailer.Count, full.Count)
	}
	if trailer.Stats == nil || trailer.Stats.TuplesStreamed != 1 || trailer.Stats.TuplesSkipped != 1 {
		t.Fatalf("stats streamed/skipped not metered: %+v", trailer.Stats)
	}
}

// TestJSONCountUnderLimit is the satellite-a regression: a windowed JSON
// request returns the window in answer but the FULL cardinality in count.
func TestJSONCountUnderLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, full, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop})
	if full.Count != 2 {
		t.Fatalf("two-hop count = %d, want 2", full.Count)
	}
	code, win, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, Limit: 1, Offset: 1})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if win.Count != full.Count {
		t.Fatalf("windowed count = %d, want full %d", win.Count, full.Count)
	}
	if len(win.Answer) != 1 {
		t.Fatalf("windowed answer has %d rows, want 1", len(win.Answer))
	}
	if win.Answer[0][0] != full.Answer[1][0] || win.Answer[0][1] != full.Answer[1][1] {
		t.Fatalf("window = %v, want %v", win.Answer[0], full.Answer[1])
	}
	// Offset past the end: empty window, same full count.
	_, past, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, Offset: 99})
	if past.Count != full.Count || len(past.Answer) != 0 {
		t.Fatalf("past-the-end window: count=%d answer=%v", past.Count, past.Answer)
	}
	// Negative window fields are client bugs.
	for _, bad := range []QueryRequest{
		{Database: "graph", Query: twoHop, Limit: -1},
		{Database: "graph", Query: twoHop, Offset: -1},
	} {
		if code, _, _ := postQuery(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("negative window field accepted with status %d", code)
		}
	}
}

// TestStreamCachedAndCaches pins the cache interplay: an exhaustive stream
// stores its result under the window-free key, a later windowed stream is
// served from it, and a later JSON request hits the same entry.
func TestStreamCachedAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	hdr, rows, _ := postStream(t, ts, QueryRequest{Database: "graph", Query: twoHop, Engine: "compiled", Stream: true})
	if hdr.ResultCached {
		t.Fatal("first stream claims a cache hit")
	}
	if s.results.Len() != 1 {
		t.Fatalf("exhaustive stream did not store its result (cache size %d)", s.results.Len())
	}
	hdr2, rows2, _ := postStream(t, ts, QueryRequest{
		Database: "graph", Query: twoHop, Engine: "compiled", Stream: true, Limit: 1})
	if !hdr2.ResultCached {
		t.Fatal("windowed stream missed the cached full result")
	}
	if len(rows2) != 1 || rows2[0][0] != rows[0][0] || rows2[0][1] != rows[0][1] {
		t.Fatalf("cached window = %v, want %v", rows2, rows[0])
	}
	code, resp, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, Engine: "compiled"})
	if code != http.StatusOK || !resp.ResultCached {
		t.Fatalf("JSON request after stream: code=%d cached=%v", code, resp.ResultCached)
	}
	// A limit-stopped stream must NOT have stored a truncated answer: the
	// cache still holds exactly one (full) entry.
	if s.results.Len() != 1 {
		t.Fatalf("cache size %d after windowed stream, want 1", s.results.Len())
	}
}

// TestStreamCacheLookupSpan pins the stream path's result-cache read inside
// a cache_lookup span, like the JSON path's: without it
// bvqd_stage_seconds{stage="cache_lookup"} and the slow-log spans= summary
// silently exclude streams.
func TestStreamCacheLookupSpan(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBufferSize: 16})
	postStream(t, ts, QueryRequest{Database: "graph", Query: twoHop, Engine: "compiled", Stream: true})
	var list struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &list); code != http.StatusOK || len(list.Traces) != 1 {
		t.Fatalf("/debug/traces: status %d, %d traces, want the one stream's trace", code, len(list.Traces))
	}
	var v trace.View
	if code := getJSON(t, ts.URL+"/debug/traces/"+list.Traces[0].TraceID, &v); code != http.StatusOK {
		t.Fatalf("trace detail status %d", code)
	}
	names := map[string]bool{}
	for _, sp := range v.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{trace.SpanCacheLookup, trace.SpanAdmission, trace.SpanEval, trace.SpanStreamDrain} {
		if !names[want] {
			t.Fatalf("stream trace missing span %q; got %v", want, names)
		}
	}
}

// TestStreamDisconnectReleasesSlot is the satellite-b regression: a client
// vanishing mid-stream is counted as a disconnect (not an error) and its
// admission slot is released promptly for the next request.
func TestStreamDisconnectReleasesSlot(t *testing.T) {
	// Single evaluation slot: a stuck stream would starve everything.
	db := streamBench(t, 100)
	s, ts := newTestServer(t, Config{
		Databases:          map[string]*database.Database{"big": db},
		MaxConcurrentEvals: 1,
	})
	// Pace the drain: on a fast loopback the whole 10k-row answer can land in
	// socket buffers before the client's close is even noticed, exhausting the
	// stream cleanly and counting nothing. A short breath every few hundred
	// rows gives the connection teardown time to surface as a write error or
	// context cancellation — the paths under test.
	s.testHookOnStreamRow = func(row int) {
		if row%256 == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	body, _ := json.Marshal(QueryRequest{
		Database: "big", Query: twoHop, Engine: "compiled", Stream: true, NoCache: true})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Read the header line only, then slam the connection shut mid-answer.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The slot must come back: a second request on the single-slot server
	// succeeds without being shed or queued forever.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ := postQuery(t, ts, QueryRequest{Database: "big", Query: twoHop, Engine: "compiled", NoCache: true})
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: status %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The cut is counted as a disconnect, and not as an error.
	deadline = time.Now().Add(5 * time.Second)
	for s.metrics.streamDisconnects.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream disconnect never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := getStats(t, ts)
	if st.StreamDisconnects == 0 || st.Streams == 0 {
		t.Fatalf("stats streams=%d disconnects=%d", st.Streams, st.StreamDisconnects)
	}
	if st.Errors != 0 {
		t.Fatalf("disconnect was counted as an error (errors=%d)", st.Errors)
	}
}

// streamBench is a complete graph: n² two-hop answers, enough to keep a
// stream busy past one read buffer.
func streamBench(t testing.TB, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder()
	b.Relation("E", 2)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Add("E", i, j)
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStreamBoolean pins arity-0 streams: no rows, truth in the trailer.
func TestStreamBoolean(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hdr, rows, trailer := postStream(t, ts, QueryRequest{
		Database: "graph", Query: "(). exists x. P(x)", Stream: true})
	if hdr.Arity != 0 {
		t.Fatalf("arity %d", hdr.Arity)
	}
	if len(rows) != 1 {
		t.Fatalf("boolean true stream yielded %d rows, want 1 empty row", len(rows))
	}
	if trailer.Truth == nil || !*trailer.Truth {
		t.Fatalf("trailer truth %v, want true", trailer.Truth)
	}
	if trailer.Count == nil || *trailer.Count != 1 {
		t.Fatalf("trailer count %v, want 1", trailer.Count)
	}
}

// TestStreamTraceRejected pins that stream+trace is a 400, not a silently
// untraced stream: trace is no field of the request.
func TestStreamTraceRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _ := postRaw(t, ts, []byte(`{"database":"graph","query":"(x). P(x)","stream":true,"trace":true}`))
	if code != http.StatusBadRequest {
		t.Fatalf("stream+trace status %d, want 400", code)
	}
}

// TestStreamPanicMidDrainEmitsTrailer is the truncation-vs-completion
// regression: a backend failure AFTER the first byte (here a panic injected
// in the drain loop) is past the point where a JSON error response is
// possible, so the stream MUST still end with an error trailer — a front
// tier distinguishes truncation from completion by exactly that line. The
// panic is contained (later requests succeed) and counted as a recovered
// panic, not as a timeout or a client disconnect.
func TestStreamPanicMidDrainEmitsTrailer(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.testHookOnStreamRow = func(row int) {
		if row == 1 {
			panic("injected backend failure")
		}
	}

	body, err := json.Marshal(QueryRequest{Database: "graph", Query: twoHop, Stream: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, want 200 (committed before the failure)", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want at least header + trailer", len(lines))
	}
	last := lines[len(lines)-1]
	var trailer StreamTrailer
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || !trailer.Trailer {
		t.Fatalf("last line %q is not a trailer", last)
	}
	if trailer.Error == "" || !strings.Contains(trailer.Error, "panic") {
		t.Fatalf("trailer error = %q, want the contained panic", trailer.Error)
	}
	if trailer.Streamed != 1 {
		t.Fatalf("trailer streamed = %d, want 1 (one row made it out)", trailer.Streamed)
	}

	st := s.Stats()
	if st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
	if st.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0 (a panic is not a deadline)", st.Timeouts)
	}
	if st.StreamDisconnects != 0 {
		t.Fatalf("stream_disconnects = %d, want 0 (the client never went away)", st.StreamDisconnects)
	}

	// Containment: the daemon serves the next request normally.
	s.testHookOnStreamRow = nil
	hdr, rows, tr := postStream(t, ts, QueryRequest{Database: "graph", Query: twoHop, Stream: true, NoCache: true})
	if hdr.Arity != 2 || len(rows) == 0 || tr.Error != "" {
		t.Fatalf("post-panic stream broken: header %+v, %d rows, trailer %+v", hdr, len(rows), tr)
	}
}

// TestStreamDeadlineMidDrainEmitsTrailer pins the other mid-stream death:
// the server's own deadline firing after the first byte ends with an error
// trailer (and counts as a timeout), never a silent cut. The ~5k-tuple
// answer guarantees the enumerator's every-1024-tuples context poll runs
// after the injected stall has outlived the 50ms deadline.
func TestStreamDeadlineMidDrainEmitsTrailer(t *testing.T) {
	s, ts := newTestServer(t, Config{Databases: map[string]*database.Database{
		"ord": orderedDB(t, 100),
	}})
	s.testHookOnStreamRow = func(row int) {
		if row == 0 {
			time.Sleep(200 * time.Millisecond)
		}
	}

	body, err := json.Marshal(QueryRequest{Database: "ord", Query: "(x, y). Less(x, y)",
		Stream: true, NoCache: true, TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	last := lines[len(lines)-1]
	var trailer StreamTrailer
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || !trailer.Trailer {
		t.Fatalf("last line %q is not a trailer", last)
	}
	if trailer.Error == "" {
		t.Fatalf("trailer has no error after a mid-drain deadline: %q", last)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
}

// TestSlowStreamReaderReleasesSlot pins when a streamed miss gives its
// evaluation slot back: when the evaluation returns, not when the reader has
// drained. The answer is whole before the header is written, so a connected
// but slow NDJSON reader on a single-slot server holds neither the slot nor
// bvqd_evals_in_flight, and a second miss answers 200 while the first
// response is still open.
func TestSlowStreamReaderReleasesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Databases:          map[string]*database.Database{"big": streamBench(t, 30)},
		MaxConcurrentEvals: 1,
		MaxEvalQueue:       1,
	})
	atRow2, release := make(chan struct{}), make(chan struct{})
	s.testHookOnStreamRow = func(row int) {
		if row == 1 {
			close(atRow2)
			<-release
		}
	}
	body, _ := json.Marshal(QueryRequest{Database: "big", Query: twoHop, Stream: true, NoCache: true})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-atRow2 // the drain is stopped after row 1: the response is open

	if st := s.Stats(); st.InFlight.Evals != 0 || st.InFlight.Requests != 1 {
		t.Errorf("with the reader stalled: %d evaluations and %d requests in flight, want 0 and 1", st.InFlight.Evals, st.InFlight.Requests)
	}
	// The request's deadline bounds the wait of a regression: a held slot
	// queues this one until it answers 504.
	code, second, bad := postQuery(t, ts, QueryRequest{Database: "big", Query: twoHop, NoCache: true, TimeoutMS: 2000})
	if code != http.StatusOK || second.Count != 900 {
		t.Errorf("second miss beside the stalled stream: status %d, count %d (%s); want 200 and 900", code, second.Count, bad.Error)
	}
	close(release)
	rest, err := io.ReadAll(resp.Body)
	if err != nil || !bytes.Contains(rest, []byte(`"trailer":true,"count":900,"streamed":900`)) {
		t.Fatalf("the stalled stream did not finish: err %v, tail %q", err, rest[max(0, len(rest)-200):])
	}
}

// TestStreamsCoalesce pins that the thundering-herd promise covers streams: N
// concurrent identical misses, NDJSON and JSON mixed, windowed and not, cost
// one evaluation. Every response carries the same rows; a follower's drain is
// unmetered, like a hit's — it shares the leader's statistics — while a
// leading stream's trailer reports its own drain. Meaningful under -race: the
// leader decodes from the very head the followers read, beside its Stats.
func TestStreamsCoalesce(t *testing.T) {
	const n = 8
	var evals atomic.Int64
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	defer open() // a failure before the gate opens must not leave handlers behind it
	s, ts := hookedServer(t, Config{Databases: map[string]*database.Database{"big": streamBench(t, 12)}}, func() {
		evals.Add(1)
		<-gate
	})
	type reply struct {
		stream    bool
		off, lim  int
		rows      [][]int
		coalesced bool
		stats     *StatsJSON
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(stream bool, off, lim int) {
			defer wg.Done()
			req := QueryRequest{Database: "big", Query: twoHop, Backend: "dense", Stream: stream, Offset: off, Limit: lim}
			if stream {
				_, rows, trailer := postStream(t, ts, req)
				replies <- reply{stream: true, off: off, lim: lim, rows: append([][]int{}, rows...), stats: trailer.Stats}
				return
			}
			_, resp, _ := postQuery(t, ts, req)
			replies <- reply{off: off, lim: lim, rows: resp.Answer, coalesced: resp.Coalesced, stats: resp.Stats}
		}(i%2 == 0, (i%3)*50, (i%4)*30)
	}
	// Everyone is inside the handler and one of them inside the engine; a grace
	// period lets the last ones join the flight (one that arrived after the
	// gate opened would lead a flight of its own).
	deadline := time.Now().Add(10 * time.Second)
	for st := s.Stats(); st.InFlight.Requests < n || st.InFlight.Evals != 1; st = s.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("herd never assembled: %d requests, %d evaluations in flight", st.InFlight.Requests, st.InFlight.Evals)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	open()
	wg.Wait()
	close(replies)

	if got := evals.Load(); got != 1 {
		t.Fatalf("%d identical concurrent misses ran %d evaluations, want 1", n, got)
	}
	if st := s.Stats(); st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	// The reference: a run of its own, past the open gate.
	_, want, _ := postQuery(t, ts, QueryRequest{Database: "big", Query: twoHop, Backend: "dense", NoCache: true})
	if want.Count != 144 {
		t.Fatalf("reference answer has %d rows, want 144", want.Count)
	}
	metered := 0
	for r := range replies {
		if w := window(want.Answer, r.off, r.lim); !reflect.DeepEqual(r.rows, w) {
			t.Fatalf("stream=%v coalesced=%v offset=%d limit=%d: rows differ from the reference run's:\n got %v\nwant %v", r.stream, r.coalesced, r.off, r.lim, r.rows, w)
		}
		if r.stats == nil || r.stats.SubformulaEvals != want.Stats.SubformulaEvals {
			t.Fatalf("stream=%v: stats %+v are not the one run's %+v", r.stream, r.stats, want.Stats)
		}
		if r.stats.TuplesStreamed != 0 {
			metered++
			if !r.stream || r.stats.TuplesStreamed != int64(len(r.rows)) {
				t.Fatalf("stream=%v with %d rows reports tuples_streamed %d", r.stream, len(r.rows), r.stats.TuplesStreamed)
			}
		}
	}
	if metered > 1 {
		t.Fatalf("%d responses carry a metered drain; only a leading stream's may", metered)
	}
}

// window is the offset/limit window of rows, never nil.
func window(rows [][]int, off, lim int) [][]int {
	rows = rows[min(off, len(rows)):]
	if lim > 0 {
		rows = rows[:min(lim, len(rows))]
	}
	return append([][]int{}, rows...)
}

// randomFormula draws an FO(LFP) formula over E/2, P/1 and the variables x, y,
// z; recs are the recursion relations in scope, read positively only.
func randomFormula(r *rand.Rand, depth int, recs []string) logic.Formula {
	v := func() logic.Var { return []logic.Var{"x", "y", "z"}[r.Intn(3)] }
	leaf := func(recs []string) logic.Formula {
		switch k := r.Intn(5); {
		case len(recs) > 0 && k < 2:
			return logic.R(recs[r.Intn(len(recs))], v())
		case k == 2:
			return logic.R("P", v())
		case k == 3:
			return logic.Equal(v(), v())
		}
		return logic.R("E", v(), v())
	}
	if depth == 0 {
		return leaf(recs)
	}
	sub := func() logic.Formula { return randomFormula(r, depth-1, recs) }
	switch r.Intn(8) {
	case 0:
		return logic.And(sub(), sub())
	case 1:
		return logic.Or(sub(), sub())
	case 2:
		return logic.Exists(sub(), v())
	case 3:
		return logic.Forall(sub(), v())
	case 4:
		return logic.Neg(leaf(nil))
	case 5, 6:
		name, rv := fmt.Sprintf("S%d", len(recs)), v()
		return logic.Lfp(name, []logic.Var{rv}, logic.Or(logic.R(name, rv), randomFormula(r, depth-1, append(recs[:len(recs):len(recs)], name))), v())
	}
	return logic.And(sub(), leaf(recs))
}

// oneFormDifferential holds every way bvqd comes by an answer to one
// rendering. For random formulas over a random graph, on each backend, and a
// random offset/limit: a fresh JSON answer, a fresh stream, a hit read as JSON
// and as a stream, and — after an update that touches E — the first read of
// each entry (a hit, a maintained miss or a recompute) all deliver the window that the
// naive engine's answer, computed in-process, has at that place. The dense, sparse and hybrid routes
// and the mid-loop hand-off are the eval layer's to force
// (TestEnumStreamedMatchesMaterialized, TestAnswerViewEveryRoute); a coalesced
// follower's rows are TestStreamsCoalesce's.
func oneFormDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	const n = 6
	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	edge := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		b.Domain(i)
		if i%2 == 0 {
			b.Add("P", i)
		}
		for j := 0; j < n; j++ {
			if r.Intn(4) == 0 {
				b.Add("E", i, j)
				edge[[2]int{i, j}] = true
			}
		}
	}
	s, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"g": b.MustBuild()}})
	kept := 0
	for trial := 0; trial < 400 && kept < 40; trial++ {
		f := randomFormula(r, 3, nil)
		if logic.Validate(f, nil) != nil {
			continue
		}
		q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil || q.Arity() == 0 {
			continue
		}
		kept++
		text := q.String()
		// The domain's values are its indices, so the oracle's tuples are rows.
		oracle := func() [][]int {
			ans, err := eval.NaiveContext(context.Background(), q, s.dbs["g"].snap.Load())
			if err != nil {
				t.Fatalf("naive %s: %v", text, err)
			}
			rows := [][]int{}
			for _, tp := range ans.Tuples() {
				rows = append(rows, []int(tp))
			}
			return rows
		}
		// check reads the window every way req can be served now, against want.
		check := func(when string, req QueryRequest, want [][]int) {
			t.Helper()
			off, lim := r.Intn(len(want)+2), r.Intn(len(want)+2)
			req.Offset, req.Limit = off, lim
			w := window(want, off, lim)
			code, resp, bad := postQuery(t, ts, req)
			if code != http.StatusOK || resp.Count != len(want) || !reflect.DeepEqual(resp.Answer, w) {
				t.Fatalf("%s, JSON %+v: status %d (%s), count %d, cached %v\n rows %v\n want %v of %d", when, req, code, bad.Error, resp.Count, resp.ResultCached, resp.Answer, w, len(want))
			}
			req.Stream = true
			hdr, rows, trailer := postStream(t, ts, req)
			if hdr.Count != len(want) || trailer.Count == nil || *trailer.Count != len(want) || !reflect.DeepEqual(append([][]int{}, rows...), w) {
				t.Fatalf("%s, stream %+v: count %d, cached %v\n rows %v\n want %v of %d", when, req, hdr.Count, hdr.ResultCached, rows, w, len(want))
			}
		}
		want := oracle()
		var served []QueryRequest
		for _, backend := range []string{"dense", "sparse", ""} {
			req := QueryRequest{Database: "g", Query: text, Engine: "compiled", Backend: backend}
			if code, _, _ := postQuery(t, ts, req); code != http.StatusOK {
				continue // outside this backend's fragment
			}
			served = append(served, req)
			fresh := req
			fresh.NoCache = true
			check("fresh", fresh, want)
			check("hit", req, want)
		}
		if len(served) < 2 {
			t.Fatalf("%s: served by %d backends, want dense and auto at least", text, len(served))
		}
		// Toggle an edge: every entry of this formula is read again, and the
		// read hits, maintains or recomputes.
		e := [2]int{r.Intn(n), r.Intn(n)}
		up := UpdateEntry{Relation: "E", Insert: [][]int{e[:]}}
		if edge[e] {
			up = UpdateEntry{Relation: "E", Delete: [][]int{e[:]}}
		}
		edge[e] = !edge[e]
		code, _, bad := postUpdate(t, ts, "g", UpdateRequest{Updates: []UpdateEntry{up}})
		if code != http.StatusOK {
			t.Fatalf("update %+v: status %d: %s", up, code, bad.Error)
		}
		want = oracle()
		for _, req := range served {
			check("after the update", req, want)
		}
	}
	if maintained := s.metrics.maintained.Value(); kept < 40 || maintained == 0 {
		t.Fatalf("kept %d formulas, %d entries maintained: the generator no longer covers the differential", kept, maintained)
	}

	// The Compact fallback: an answer whose shape has no sorted-code form — 3
	// axes of 2²¹ points, 2⁶³ codes — is kept as the Set it is and read through
	// the same two writers. No engine reaches such a shape on a database that
	// fits a test, so the entry is stored by hand, through the one store call,
	// with tuples inside the served domain so that they render as values.
	wide := relation.SetOf(3, relation.Tuple{5, 0, 5}, relation.Tuple{0, 4, 2}, relation.Tuple{0, 1, 2})
	req := QueryRequest{Database: "g", Query: "(x, y, z). E(x, y) & E(y, z)"}
	postQuery(t, ts, req)
	key := resultKey(t, s.dbs["g"].snap.Load(), req)
	res, ok := s.results.Peek(key)
	if !ok {
		t.Fatalf("no entry for %q", req.Query)
	}
	res.Answer = wide
	if kept := s.store(key, res, 1<<21); kept != relation.View(wide) {
		t.Fatalf("store compacted a shape without a code form into %T", kept)
	}
	for _, w := range [][2]int{{0, 0}, {1, 1}, {2, 5}} {
		req.Offset, req.Limit = w[0], w[1]
		want := window([][]int{{0, 1, 2}, {0, 4, 2}, {5, 0, 5}}, w[0], w[1])
		_, resp, _ := postQuery(t, ts, req)
		sreq := req
		sreq.Stream = true
		hdr, rows, _ := postStream(t, ts, sreq)
		if !resp.ResultCached || !hdr.ResultCached || resp.Count != 3 || hdr.Count != 3 ||
			!reflect.DeepEqual(resp.Answer, want) || !reflect.DeepEqual(append([][]int{}, rows...), want) {
			t.Fatalf("wide shape, window %v: JSON %v, stream %v, want %v", w, resp.Answer, rows, want)
		}
	}
}

// TestDenseHeadStaysLazy pins the O(window) extraction of DESIGN §4.10 on the
// route where it is easiest to lose: the head of (x, y). !E(x, y) over 2,000
// nodes is a 4-million-bit bitmap with nearly every bit set, and a LIMIT 10
// stream of it decodes ten tuples — tuples_streamed says so — and allocates
// nothing per tuple of the rest: no conversion to codes (32 MB), no Set.
func TestDenseHeadStaysLazy(t *testing.T) {
	s, _ := newTestServer(t, Config{Databases: map[string]*database.Database{"forest": workload.ForestGraph(2000, 16)}})
	h := s.Handler()
	// Forced dense: auto prices the 1,875-edge atom as tuples and takes the sparse
	// route, whose head is the materialized complement whoever reads it.
	body, _ := json.Marshal(QueryRequest{Database: "forest", Query: "(x, y). !E(x, y)", Backend: "dense", Stream: true, Limit: 10})
	var out []byte
	run := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		out = rec.Body.Bytes()
	}
	run() // warm: the plan is compiled, the spaces interned, their pools filled
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var hdr StreamHeader
	var trailer StreamTrailer
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		t.Fatal(err)
	}
	const full = 2000*2000 - 1875 // all pairs but the forest's edges
	if hdr.Count != full || hdr.ResultCached || len(lines) != 12 || trailer.Stats == nil ||
		trailer.Stats.TuplesStreamed != 10 || trailer.Stats.TuplesTouched != 0 {
		t.Fatalf("header %+v, %d lines, trailer stats %+v; want count %d on the dense route, 10 rows, tuples_streamed 10", hdr, len(lines), trailer.Stats, full)
	}
	if s.results.Len() != 0 {
		t.Fatalf("a windowed stream kept %d entries", s.results.Len())
	}
	// Two 500 KB bitmaps (the atom, its complement) and the head's are the
	// evaluation; 8 bytes a tuple of the head would be 32 MB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("a LIMIT 10 stream over a %d-tuple dense head allocated %d bytes, want under 4 MiB", full, got)
	}
}
