package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// start serves h on a loopback port until the test ends.
func start(tb testing.TB, h http.Handler) *Server {
	tb.Helper()
	s, err := Listen("127.0.0.1:0", h)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

// exchange sends raw bytes on one connection, half-closes it and returns
// everything the server wrote before it closed.
func exchange(tb testing.TB, s *Server, raw string) string {
	tb.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(s.URL, "http://"))
	if err != nil {
		tb.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		_, _ = io.WriteString(nc, raw)
		_ = nc.(*net.TCPConn).CloseWrite()
	}()
	out, err := io.ReadAll(nc)
	if err != nil {
		tb.Fatalf("reading the server's bytes: %v (so far %q)", err, out)
	}
	return string(out)
}

// echo answers with the request body, framed as the path asks: /len sets a
// Content-Length, /flush flushes halfway, anything else leaves the framing
// to the loop. A body that fails to read answers 400.
func echo(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/len"):
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	case strings.HasPrefix(r.URL.Path, "/flush"):
		_, _ = w.Write(b[:len(b)/2])
		w.(http.Flusher).Flush()
		b = b[len(b)/2:]
	}
	_, _ = w.Write(b)
}

func TestFraming(t *testing.T) {
	s := start(t, http.HandlerFunc(echo))
	for _, c := range []struct {
		name, raw string
		want      []string // substrings of the server's bytes, in order
		not       []string
	}{
		{"length the handler set", "POST /len HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
			[]string{"HTTP/1.1 200 OK\r\n", "Content-Length: 5\r\n", "Connection: close", "\r\n\r\nhello"}, []string{"chunked"}},
		{"chunked without a length", "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
			[]string{"Content-Type: text/plain; charset=utf-8\r\n", "Transfer-Encoding: chunked", "\r\n\r\n5\r\nhello\r\n0\r\n\r\n"}, []string{"Content-Length"}},
		{"a length of 0 for no body", "GET /len HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
			[]string{"HTTP/1.1 200 OK\r\n", "Content-Length: 0\r\n"}, []string{"chunked"}},
		{"chunked after a flush", "POST /flush HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
			[]string{"Transfer-Encoding: chunked\r\n", "\r\n\r\n2\r\nhe\r\n3\r\nllo\r\n0\r\n\r\n"}, []string{"Content-Length"}},
		{"HTTP/1.0 ends the body at the close", "POST /flush HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello",
			[]string{"HTTP/1.1 200 OK\r\n", "Connection: close", "\r\n\r\nhello"}, []string{"chunked", "Content-Length"}},
		{"HTTP/1.0 closes after one answer", "GET /len HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /len HTTP/1.0\r\n\r\n",
			[]string{"HTTP/1.1 200 OK\r\n", "Connection: close\r\n"}, []string{"keep-alive", "200 OK\r\n\r\nHTTP"}},
		{"HEAD has no body", "HEAD / HTTP/1.1\r\nHost: a\r\n\r\n", []string{"HTTP/1.1 200 OK\r\n"}, []string{"Content-Length", "chunked"}},
		{"100-continue before the body", "POST /len HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
			[]string{"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n", "\r\n\r\nok"}, nil},
		{"keep-alive: two answers on one connection", "POST /len HTTP/1.1\r\nHost: a\r\nContent-Length: 1\r\n\r\naPOST /len HTTP/1.1\r\nHost: a\r\nContent-Length: 1\r\n\r\nb",
			[]string{"\r\n\r\naHTTP/1.1 200 OK\r\n", "\r\n\r\nb"}, []string{"Connection: close"}},
		{"malformed header", "GET / HTTP/1.1\r\nHost: a\r\nno colon\r\n\r\n", []string{"HTTP/1.1 400 Bad Request\r\n", "Connection: close"}, nil},
		{"missing Host", "GET / HTTP/1.1\r\n\r\n", []string{"HTTP/1.1 400 Bad Request\r\n"}, nil},
	} {
		got := exchange(t, s, c.raw)
		at := 0
		for _, w := range c.want {
			i := strings.Index(got[at:], w)
			if i < 0 {
				t.Errorf("%s: no %q in order in %q", c.name, w, got)
				break
			}
			at += i + len(w)
		}
		for _, n := range c.not {
			if strings.Contains(got, n) {
				t.Errorf("%s: %q in %q", c.name, n, got)
			}
		}
	}
}

func TestHeadOver1MiBAnswers431(t *testing.T) {
	s := start(t, http.HandlerFunc(echo))
	got := exchange(t, s, "GET / HTTP/1.1\r\nHost: a\r\nX-Big: "+strings.Repeat("x", maxHeaderBytes+readBufSize)+"\r\n\r\n")
	if !strings.HasPrefix(got, "HTTP/1.1 431 ") {
		t.Fatalf("a head over 1 MiB answered %.60q", got)
	}
	got = exchange(t, s, "GET / HTTP/1.1\r\nHost: a\r\nX-Big: "+strings.Repeat("x", maxHeaderBytes/2)+"\r\nConnection: close\r\n\r\n")
	if !strings.HasPrefix(got, "HTTP/1.1 200 ") {
		t.Fatalf("a head of 512 KiB answered %.60q", got)
	}
}

// TestUnreadBody: what a handler leaves of a body is discarded up to the
// bound, and past it the connection closes after the answer.
func TestUnreadBody(t *testing.T) {
	s := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	small := strings.Repeat("x", 1000)
	got := exchange(t, s, "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 1000\r\n\r\n"+small+"GET / HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n")
	if strings.Count(got, "HTTP/1.1 202 ") != 2 {
		t.Fatalf("an unread 1000-byte body did not leave the connection for the next request: %q", got)
	}
	big := strings.Repeat("x", maxPostHandlerRead+10)
	got = exchange(t, s, "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: "+strconv.Itoa(len(big))+"\r\n\r\n"+big+"GET / HTTP/1.1\r\nHost: a\r\n\r\n")
	if strings.Count(got, "HTTP/1.1 202 ") != 1 || !strings.Contains(got, "Connection: close\r\n") {
		t.Fatalf("an unread body over the bound: %q", got)
	}
}

// TestPanicClosesItsConnection: a handler panic closes its own connection and
// no other.
func TestPanicClosesItsConnection(t *testing.T) {
	s := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/panic" {
			panic(http.ErrAbortHandler)
		}
		_, _ = io.WriteString(w, "ok")
	}))
	cl := &http.Client{Transport: &http.Transport{}}
	defer cl.CloseIdleConnections()
	get := func(path string) (string, error) {
		resp, err := cl.Get(s.URL + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	if b, err := get("/"); err != nil || b != "ok" {
		t.Fatalf("before the panic: %q, %v", b, err)
	}
	other, err := net.Dial("tcp", strings.TrimPrefix(s.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := get("/panic"); err == nil {
		t.Fatal("a panicking handler answered")
	}
	_ = other.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(other, "GET / HTTP/1.1\r\nHost: a\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(other), nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("a connection open beside the panic: %v", err)
	}
}

// TestDisconnectCancels: a client that hangs up on a slow request cancels its
// context once the request has outlived the watch delay.
func TestDisconnectCancels(t *testing.T) {
	cancelled := make(chan time.Duration, 1)
	started := make(chan struct{})
	s := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadAll(r.Body) // the watch starts once the body is read
		t0 := time.Now()
		close(started)
		select {
		case <-r.Context().Done():
			cancelled <- time.Since(t0)
		case <-time.After(5 * time.Second):
			cancelled <- -1
		}
	}))
	nc, err := net.Dial("tcp", strings.TrimPrefix(s.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(nc, "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\nhi"); err != nil {
		t.Fatal(err)
	}
	<-started
	nc.Close()
	if d := <-cancelled; d < 0 || d > watchDelay+time.Second {
		t.Fatalf("the request's context ended after %v; want a cancel soon after the hang-up", d)
	}
}

// TestShutdownDrains: Shutdown closes idle connections at once and lets a
// request in flight finish, on a connection that then closes.
func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	s, err := Listen("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-release
		}
		_, _ = io.WriteString(w, "done")
	}))
	if err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		nc, err := net.Dial("tcp", strings.TrimPrefix(s.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
		return nc
	}
	idle, busy := dial(), dial()
	defer idle.Close()
	defer busy.Close()
	if _, err := io.WriteString(idle, "GET / HTTP/1.1\r\nHost: a\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	ibr := bufio.NewReader(idle)
	resp, err := http.ReadResponse(ibr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := io.ReadAll(resp.Body); err != nil || string(b) != "done" {
		t.Fatalf("idle connection's first answer: %q, %v", b, err)
	}
	if _, err := io.WriteString(busy, "GET /slow HTTP/1.1\r\nHost: a\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan error, 1)
	go func() { done <- s.Shutdown() }()
	if _, err := ibr.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("the idle connection was not closed: %v", err)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, err = http.ReadResponse(bufio.NewReader(busy), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "done" || !resp.Close {
		t.Fatalf("the drained answer: %q, close=%v", b, resp.Close)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := net.Dial("tcp", strings.TrimPrefix(s.URL, "http://")); err == nil {
		t.Fatal("still accepting after Shutdown")
	}
}

// TestFlushDelivers: each Flush puts what was written on the wire while the
// handler still runs.
func TestFlushDelivers(t *testing.T) {
	next := make(chan struct{})
	s := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := range 3 {
			fmt.Fprintf(w, "line %d\n", i)
			w.(http.Flusher).Flush()
			<-next
		}
	}))
	resp, err := http.Get(s.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for i := range 3 {
		line, err := br.ReadString('\n')
		if err != nil || line != fmt.Sprintf("line %d\n", i) {
			t.Fatalf("line %d: %q, %v", i, line, err)
		}
		next <- struct{}{}
	}
}

type handled struct {
	method, target, body string
	ok                   bool // the body read to its end
}

// FuzzServeConn feeds a raw client byte stream to the loop serving echo and
// checks three things: the loop neither panics nor hangs; what it writes is a
// sequence of responses http.ReadResponse reads whole; and the requests it
// hands to the handler are the ones http.ReadRequest reads from the same
// bytes, in order (the loop may stop sooner, by its own rules).
func FuzzServeConn(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var mu sync.Mutex
		var got []handled
		s := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b, err := io.ReadAll(r.Body)
			mu.Lock()
			got = append(got, handled{r.Method, r.RequestURI, string(b), err == nil})
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(b))
			if err != nil {
				r.Body = errBody{}
			}
			echo(w, r)
		}))
		out := exchange(t, s, string(data))
		s.Close()

		var want []handled
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				break
			}
			b, err := io.ReadAll(req.Body)
			if err != nil {
				break
			}
			want = append(want, handled{req.Method, req.RequestURI, string(b), true})
		}
		n := 0
		for n < len(got) && got[n].ok {
			n++
		}
		if n > len(want) {
			t.Fatalf("the handler read %d requests whole, http.ReadRequest %d", n, len(want))
		}
		for i := range n {
			if got[i] != want[i] {
				t.Fatalf("request %d: the handler got %+v, http.ReadRequest reads %+v", i, got[i], want[i])
			}
		}

		rbr := bufio.NewReader(strings.NewReader(out))
		for i := 0; ; {
			if _, err := rbr.Peek(1); err == io.EOF {
				if i < len(got) {
					t.Fatalf("%d requests handled, %d responses", len(got), i)
				}
				return
			}
			req := &http.Request{Method: http.MethodGet}
			if i < len(got) {
				req.Method = got[i].method
			}
			resp, err := http.ReadResponse(rbr, req)
			if err != nil {
				t.Fatalf("response %d does not parse: %v in %q", i, err, out)
			}
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("response %d's body: %v in %q", i, err, out)
			}
			if resp.StatusCode < 200 {
				continue
			}
			if i < n && resp.StatusCode == http.StatusOK && req.Method != http.MethodHead && string(b) != got[i].body {
				t.Fatalf("response %d echoes %q, want %q", i, b, got[i].body)
			}
			i++
		}
	})
}

// errBody fails every read: what echo sees of a body that did not read whole.
type errBody struct{}

func (errBody) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
func (errBody) Close() error             { return nil }
