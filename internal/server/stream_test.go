package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/trace"
)

// postStream posts a streamed /query and splits the NDJSON response into
// header, tuple rows and trailer. It fails the test on malformed framing.
func postStream(t testing.TB, ts *httptest.Server, req QueryRequest) (StreamHeader, [][]int, StreamTrailer) {
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
// a query are exactly the JSON response's answer, for every engine that the
// served query admits, with matching full counts in the trailer.
func TestStreamMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, engine := range []string{"bottomup", "naive", "monotone", "compiled"} {
		code, want, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, Engine: engine, NoCache: true})
		if code != http.StatusOK {
			t.Fatalf("%s: JSON status %d", engine, code)
		}
		hdr, rows, trailer := postStream(t, ts, QueryRequest{
			Database: "graph", Query: twoHop, Engine: engine, Stream: true, NoCache: true})
		if hdr.Arity != 2 || hdr.Width != 3 {
			t.Fatalf("%s: header %+v", engine, hdr)
		}
		if len(rows) != len(want.Answer) {
			t.Fatalf("%s: %d rows streamed, JSON answer has %d", engine, len(rows), len(want.Answer))
		}
		for i := range rows {
			if len(rows[i]) != len(want.Answer[i]) {
				t.Fatalf("%s: row %d arity mismatch", engine, i)
			}
			for j := range rows[i] {
				if rows[i][j] != want.Answer[i][j] {
					t.Fatalf("%s: row %d = %v, want %v", engine, i, rows[i], want.Answer[i])
				}
			}
		}
		if trailer.Count == nil || *trailer.Count != want.Count {
			t.Fatalf("%s: trailer count %v, want %d", engine, trailer.Count, want.Count)
		}
		if trailer.Streamed != int64(len(rows)) {
			t.Fatalf("%s: trailer streamed %d, want %d", engine, trailer.Streamed, len(rows))
		}
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
// untraced stream.
func TestStreamTraceRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, _ := postQuery(t, ts, QueryRequest{Database: "graph", Query: twoHop, Stream: true, Trace: true})
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
