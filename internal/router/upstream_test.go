package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/server"
)

const edgeReq = `{"database":"graph","query":"(x, y). E(x, y)"}`

// TestKeptConnectionClosedByReplica: a replica that closes its idle
// connections between hops costs the next hop a fresh dial, never an
// eviction or a retry.
func TestKeptConnectionClosedByReplica(t *testing.T) {
	var dials atomic.Int32
	replica := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"answer":[[0,1]]}`)
	}))
	replica.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	replica.Start()
	defer replica.Close()
	rt, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})

	const hops = 20
	for i := 0; i < hops; i++ {
		resp, body := postJSON(t, ts.URL+"/query", edgeReq)
		if resp.StatusCode != http.StatusOK || string(body) != `{"answer":[[0,1]]}` {
			t.Fatalf("hop %d: status %d body %q", i, resp.StatusCode, body)
		}
		replica.CloseClientConnections()
	}
	if ev, re := rt.metrics.evictions.Value(), rt.metrics.retries.Value(); ev != 0 || re != 0 {
		t.Fatalf("%d evictions and %d retries, want none", ev, re)
	}
	if got := dials.Load(); got != hops {
		t.Fatalf("%d dials for %d hops, want one a hop", got, hops)
	}
}

// TestAbandonedBodyClosesConnection: a body read to its end gives its
// connection back; one closed midway, or a round trip whose context ends,
// closes its connection instead (the replica sees it go).
func TestAbandonedBodyClosesConnection(t *testing.T) {
	gone := make(chan struct{}, 1)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-r.Context().Done()
			gone <- struct{}{}
			return
		}
		fmt.Fprint(w, strings.Repeat("x", 64<<10))
	}))
	defer replica.Close()
	rt, err := New(Config{Replicas: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := rt.members[0]
	idle := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.idle)
	}
	get := func(ctx context.Context, path string) *http.Response {
		t.Helper()
		resp, err := m.roundTrip(ctx, http.MethodGet, path, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get(context.Background(), "/big")
	if n, _ := io.Copy(io.Discard, resp.Body); n != 64<<10 {
		t.Fatalf("read %d body bytes, want %d", n, 64<<10)
	}
	resp.Body.Close()
	if got := idle(); got != 1 {
		t.Fatalf("%d idle connections after a body read to its end, want 1", got)
	}
	resp = get(context.Background(), "/big")
	_, _ = resp.Body.Read(make([]byte, 10))
	resp.Body.Close()
	if got := idle(); got != 0 {
		t.Fatalf("%d idle connections after a body closed midway, want 0", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := m.roundTrip(ctx, http.MethodGet, "/slow", nil, nil); err == nil {
		t.Fatal("a cancelled round trip returned no error")
	}
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the replica still holds the cancelled round trip's connection")
	}
	if got := idle(); got != 0 {
		t.Fatalf("%d idle connections after a cancelled round trip, want 0", got)
	}
}

// pieceReader hands out its data, first bytes on the first read (when set)
// and k on each other, and then ends with err (io.EOF when nil).
type pieceReader struct {
	data     []byte
	first, k int
	err      error
}

func (p *pieceReader) Read(b []byte) (int, error) {
	if len(p.data) == 0 {
		if p.err != nil {
			return 0, p.err
		}
		return 0, io.EOF
	}
	n := p.k
	if p.first > 0 {
		n, p.first = p.first, 0
	}
	n = copy(b[:min(n, len(b))], p.data)
	p.data = p.data[n:]
	return n, nil
}

// relayed is what relayStream gives the client for upstream bytes read
// through r, and how many repairs it counted.
func relayed(t *testing.T, rt *Router, r io.Reader) ([]byte, int64) {
	t.Helper()
	before := rt.metrics.streamRepairs.Value()
	rec := httptest.NewRecorder()
	rt.relayStream(rec, &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(r),
	}, rt.members[0])
	return rec.Body.Bytes(), rt.metrics.streamRepairs.Value() - before
}

// TestStreamRelayAnyReadSize: relayStream's output and repair count do not
// depend on how the upstream bytes arrive. FuzzStreamRelay's seeds and a
// stream whose bytes split at every offset are read k bytes at a time and
// compared with one whole read.
func TestStreamRelayAnyReadSize(t *testing.T) {
	rt, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const header, rows = `{"request_id":"r","width":2}` + "\n", "[0,1]\n[1,2]\n"
	type input struct {
		up  []byte
		cut bool
	}
	var inputs []input
	// FuzzStreamRelay's seeds, built as it builds them.
	for _, s := range []struct {
		data                        string
		long                        int
		trailer, finalNewline, dead bool
	}{
		{header + rows, 0, true, true, false},
		{header + "[0,", 0, false, false, false},
		{header, 7, true, true, false},
		{`{"trailer":true}` + "\n", 1, false, true, false},
		{header + rows, 0, true, true, true},
		{header + rows, 0, true, false, false},
		{"", 0, false, true, false},
	} {
		var up []byte
		if s.long > 0 {
			up = bytes.Repeat([]byte{'x'}, 64<<10+s.long-1)
		}
		up = append(up, s.data...)
		if s.trailer {
			up = append(up, `{"trailer":true,"count":2}`+"\n"...)
		}
		if !s.finalNewline {
			up = bytes.TrimSuffix(up, []byte("\n"))
		}
		inputs = append(inputs, input{up, s.dead})
	}
	// A trailer line as long as the relay takes one, and one byte longer: the
	// first closes its stream, the second is repaired.
	for n, repairs := range map[int]int64{64 << 10: 0, 64<<10 + 1: 1} {
		tr := `{"trailer":true}`
		up := []byte(header + tr + strings.Repeat(" ", n-len(tr)-1) + "\n")
		if _, got := relayed(t, rt, bytes.NewReader(up)); got != repairs {
			t.Fatalf("a %d-byte trailer line: %d repairs, want %d", n, got, repairs)
		}
		inputs = append(inputs, input{up, false})
	}
	for _, in := range inputs {
		want, wantRepairs := relayed(t, rt, &pieceReader{data: in.up, k: len(in.up) + 1, err: cutErr(in.cut)})
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 64 << 10} {
			got, repairs := relayed(t, rt, &pieceReader{data: in.up, k: k, err: cutErr(in.cut)})
			if !bytes.Equal(got, want) || repairs != wantRepairs {
				t.Fatalf("%d upstream bytes (cut %v) read %d at a time: %d bytes and %d repairs, want %d and %d",
					len(in.up), in.cut, k, len(got), repairs, len(want), wantRepairs)
			}
		}
	}
	// A stream split at every offset, trailer included.
	stream := []byte(header + rows + `{"trailer":true,"count":2}` + "\n")
	for cut := 0; cut <= 1; cut++ {
		want, wantRepairs := relayed(t, rt, &pieceReader{data: stream, k: len(stream), err: cutErr(cut == 1)})
		for off := 1; off < len(stream); off++ {
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 64 << 10} {
				got, repairs := relayed(t, rt, &pieceReader{data: stream, first: off, k: k, err: cutErr(cut == 1)})
				if !bytes.Equal(got, want) || repairs != wantRepairs {
					t.Fatalf("split at %d, then %d at a time (cut %v): %q and %d repairs, want %q and %d",
						off, k, cut == 1, got, repairs, want, wantRepairs)
				}
			}
		}
	}
}

func cutErr(cut bool) error {
	if cut {
		return errors.New("connection reset by peer")
	}
	return nil
}

// TestAnswerHasLength: a JSON answer carries a Content-Length equal to its
// body and no chunked framing, from bvqd and through the router alike.
func TestAnswerHasLength(t *testing.T) {
	b := database.NewBuilder()
	b.Relation("E", 2)
	for i := 0; i < 40; i++ {
		b.Domain(i)
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			b.Add("E", i, j)
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Databases: map[string]*database.Database{"graph": db}})
	if err != nil {
		t.Fatal(err)
	}
	replica := serveLoop(t, srv.Handler())
	_, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})
	for _, base := range []string{replica.URL, ts.URL} {
		for range 2 { // a miss, then a hit's stored text
			resp, body := postJSON(t, base+"/query", edgeReq)
			if resp.StatusCode != http.StatusOK || len(body) < 8<<10 {
				t.Fatalf("%s: status %d with %d bytes, want a 200 over 8 KiB", base, resp.StatusCode, len(body))
			}
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
					base, resp.ContentLength, resp.TransferEncoding, len(body))
			}
		}
	}
}

// TestControlByteHeaderNeverForwarded: a forwarded header value with a
// control byte other than HTAB is refused with a 400 before any hop.
func TestControlByteHeaderNeverForwarded(t *testing.T) {
	var calls atomic.Int32
	var seen atomic.Value
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		seen.Store(r.Header.Get("X-Request-Id"))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"version":2,"fingerprint":"00000000000000aa"}`)
	}))
	defer replica.Close()
	rt, _ := newTestRouter(t, Config{Replicas: []string{replica.URL}})
	for _, path := range []string{"/query", "/db/graph/update"} {
		for _, v := range []string{"a\r\nX-Evil: 1", "a\nb", "a\x00b", "a\x7fb"} {
			for _, k := range forwardedHeaders {
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(edgeReq))
				req.Header.Set(k, v)
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), k) {
					t.Fatalf("%s with %s %q: status %d (%s), want a 400 naming the header", path, k, v, rec.Code, rec.Body)
				}
			}
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("the replica saw %d requests, want none", n)
	}
	// HTAB is a legal value byte and goes through.
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(edgeReq))
	req.Header.Set("X-Request-Id", "a\tb")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || seen.Load() != "a\tb" {
		t.Fatalf("status %d, the replica saw X-Request-Id %q, want 200 and %q", rec.Code, seen.Load(), "a\tb")
	}
	if ev := rt.metrics.evictions.Value(); ev != 0 {
		t.Fatalf("%d evictions, want none", ev)
	}
}

// TestShedOver64KiBRelayedWithLength: a relayed 429 is the first 64 KiB of
// the replica's body, and its Content-Length says so.
func TestShedOver64KiBRelayedWithLength(t *testing.T) {
	shed := strings.Repeat("x", 100<<10)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, shed)
	}))
	defer replica.Close()
	_, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}, MaxRetryWait: 10 * time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/query", edgeReq)
	if resp.StatusCode != http.StatusTooManyRequests || string(body) != shed[:64<<10] {
		t.Fatalf("status %d with %d bytes, want the 429's first 64 KiB", resp.StatusCode, len(body))
	}
	if resp.ContentLength != 64<<10 {
		t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
}

// TestQueryBodyOverReplicaCap: the router refuses a /query body over bvqd's
// 1 MiB cap itself (413, no hop), and answers 400, not 413, to a body it
// could not read for another reason.
func TestQueryBodyOverReplicaCap(t *testing.T) {
	var calls atomic.Int32
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"answer":[]}`)
	}))
	defer replica.Close()
	rt, ts := newTestRouter(t, Config{Replicas: []string{replica.URL}})
	big := `{"database":"graph","query":"` + strings.Repeat(" ", 2<<20) + `"}`
	resp, body := postJSON(t, ts.URL+"/query", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a 2 MiB /query: status %d (%s), want 413", resp.StatusCode, body)
	}
	if n, p := calls.Load(), rt.metrics.proxied.With(replica.URL).Value(); n != 0 || p != 0 {
		t.Fatalf("the replica saw %d requests, bvqrouter_proxied_total %d, want no hop", n, p)
	}
	for _, path := range []string{"/query", "/db/graph/update"} {
		req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(strings.NewReader(`{"data`),
			&pieceReader{err: errors.New("client aborted")}))
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s with an aborted body: status %d (%s), want 400", path, rec.Code, rec.Body)
		}
	}
}

func TestNewRefusesHTTPS(t *testing.T) {
	_, err := New(Config{Replicas: []string{"http://127.0.0.1:1", "https://127.0.0.1:2"}})
	if err == nil || !strings.Contains(err.Error(), "TLS") {
		t.Fatalf("New with an https:// replica: %v, want an error about TLS", err)
	}
	for _, raw := range []string{"127.0.0.1:8081", "http://127.0.0.1:8081/", "http://[::1]:8081"} {
		rt, err := New(Config{Replicas: []string{raw}})
		if err != nil {
			t.Fatalf("New(%q): %v", raw, err)
		}
		rt.Close()
	}
}
