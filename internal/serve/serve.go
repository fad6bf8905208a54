// Package serve serves an http.Handler on its own HTTP/1.1 keep-alive loop:
// one goroutine per connection, requests read by http.ReadRequest (so
// net/http's header validation and chunked bodies hold), responses framed
// into a pooled buffered writer, with a Content-Length when the handler set
// one (or wrote nothing) and chunked otherwise. Headers go out as set.
//
// net/http starts a goroutine per request to watch its client. This loop
// watches only a request that has outlived watchDelay with its body read, by
// the read that would start the next request: a cache hit never starts a
// watcher, and a client that hangs up on a slow request still cancels
// r.Context(). The package imports nothing else from this module.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	watchDelay         = 10 * time.Millisecond // how long a request runs before its client is watched
	maxHeaderBytes     = 1 << 20               // a longer request head answers 431
	readBufSize        = 4 << 10
	writeBufSize       = 64 << 10  // a 32 KiB NDJSON batch and its framing leave in one write
	maxPostHandlerRead = 256 << 10 // unread body discarded to keep a connection
	drainTimeout       = 30 * time.Second
	lingerTimeout      = 500 * time.Millisecond // see linger
)

var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, writeBufSize) }}

// Server serves one handler on one listener.
type Server struct {
	URL     string // http://host:port of the listener
	h       http.Handler
	ln      net.Listener
	closing atomic.Bool
	wg      sync.WaitGroup // the accept loop and every connection
	mu      sync.Mutex
	conns   map[*conn]struct{}
}

// Listen listens on addr and serves h there until Shutdown or Close.
func Listen(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{URL: "http://" + ln.Addr().String(), h: h, ln: ln, conns: map[*conn]struct{}{}}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return
			}
			log.Printf("serve: accept: %v", err) // out of descriptors, say: wait and retry
			time.Sleep(50 * time.Millisecond)
			continue
		}
		c := &conn{srv: s, rwc: nc, remote: nc.RemoteAddr().String(), lr: io.LimitedReader{R: nc}}
		c.br = bufio.NewReaderSize(&c.lr, readBufSize)
		c.timer = time.AfterFunc(time.Hour, func() { c.mark(true) })
		c.timer.Stop()
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
}

// Shutdown stops accepting, closes idle connections and gives requests in
// flight 30 s, each connection closing after its response; then it closes all.
func (s *Server) Shutdown() error { return s.stop(drainTimeout) }

// Close closes the listener and every connection, cancels the requests in
// flight and waits for their handlers to return.
func (s *Server) Close() { _ = s.stop(0) }

func (s *Server) stop(grace time.Duration) error {
	s.closing.Store(true)
	_ = s.ln.Close()
	s.closeConns(grace == 0)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	if grace > 0 {
		select {
		case <-done:
			return nil
		case <-time.After(grace):
			s.closeConns(true)
			return fmt.Errorf("serve: requests still in flight after %v", grace)
		}
	}
	<-done
	return nil
}

// closeConns closes the idle connections, or all, cancelling their requests.
func (s *Server) closeConns(all bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if all || c.idle.Load() {
			_ = c.rwc.Close()
			c.mu.Lock()
			if c.cancel != nil {
				c.cancel()
			}
			c.mu.Unlock()
		}
	}
}

// conn is one client connection and the state of the request it serves.
type conn struct {
	srv    *Server
	rwc    net.Conn
	remote string
	lr     io.LimitedReader // under br: bounds a request head
	br     *bufio.Reader
	bw     *bufio.Writer // from writers while a response is open
	idle   atomic.Bool   // between requests: Shutdown may close it
	head   []byte        // scratch for a response head or a chunk size
	timer  *time.Timer   // fires watchDelay into a request
	// the Date line of second dateSec: formatted once a second, not per response
	date    []byte
	dateSec int64

	mu        sync.Mutex // guards the watch state below
	cancel    context.CancelFunc
	overdue   bool          // the request has run watchDelay
	bodyDone  bool          // its body is read to EOF, so br is free
	watchDone chan struct{} // non-nil while a watch runs
}

func (c *conn) serve() {
	defer func() {
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		_ = c.rwc.Close()
		c.srv.wg.Done()
	}()
	for {
		c.idle.Store(true)
		if c.srv.closing.Load() {
			return
		}
		c.lr.N = maxHeaderBytes + readBufSize
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		c.idle.Store(false)
		req, err := http.ReadRequest(c.br)
		if err != nil || req.ProtoAtLeast(1, 1) && req.Host == "" {
			switch {
			case c.lr.N <= 0:
				c.reject("431 Request Header Fields Too Large")
			case !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF):
				c.reject("400 Bad Request")
			}
			return
		}
		c.lr.N = math.MaxInt64
		if !c.serveRequest(req) || c.srv.closing.Load() {
			return
		}
	}
}

// reject answers a request the loop cannot hand to the handler, and closes.
func (c *conn) reject(status string) {
	_, _ = io.WriteString(c.rwc, "HTTP/1.1 "+status+
		"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+status)
	c.linger()
}

// linger half-closes the connection and reads what the client still sends
// until it closes too, so the response is not lost to a reset.
func (c *conn) linger() {
	if tc, ok := c.rwc.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
		_ = tc.SetReadDeadline(time.Now().Add(lingerTimeout))
		_, _ = io.Copy(io.Discard, tc)
	}
}

// serveRequest runs the handler on one request and completes its response;
// it reports whether the connection can carry another request. A handler
// panic closes the connection and is logged, unless it is
// http.ErrAbortHandler.
func (c *conn) serveRequest(req *http.Request) (keep bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				log.Printf("serve: panic serving %s: %v\n%s", c.remote, p, debug.Stack())
			}
			c.timer.Stop()
			keep = false
		}
	}()
	req = req.WithContext(ctx)
	req.RemoteAddr = c.remote
	w := &response{c: c, req: req, header: make(http.Header), cl: -1, keep: !req.Close && req.ProtoAtLeast(1, 1)}
	if req.Body != http.NoBody {
		if req.ProtoAtLeast(1, 1) && strings.EqualFold(req.Header.Get("Expect"), "100-continue") {
			_, _ = io.WriteString(c.rwc, "HTTP/1.1 100 Continue\r\n\r\n")
		}
		req.Body = body{req.Body, c}
	}

	c.mu.Lock()
	c.cancel, c.overdue, c.bodyDone = cancel, false, req.Body == http.NoBody
	c.mu.Unlock()
	c.timer.Reset(watchDelay)
	c.srv.h.ServeHTTP(w, req)
	c.timer.Stop()
	c.mu.Lock()
	done := c.watchDone
	c.cancel, c.watchDone = nil, nil
	c.mu.Unlock()
	if done != nil { // end the watch: its read fails, and the bytes it got stay in br
		_ = c.rwc.SetReadDeadline(time.Unix(1, 0))
		<-done
		_ = c.rwc.SetReadDeadline(time.Time{})
	}

	err := w.Close()
	c.bw.Reset(nil)
	writers.Put(c.bw)
	c.bw = nil
	if err == nil && !w.keep {
		c.linger() // the client may still be sending a body nobody reads
	}
	return err == nil && w.keep
}

// mark records that the request has run watchDelay (overdue) or read its
// body to EOF. The second starts the watch, a goroutine blocked in the read
// that would start the next request: its failure means the client is gone.
func (c *conn) mark(overdue bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if overdue {
		c.overdue = true
	} else {
		c.bodyDone = true
	}
	if c.cancel == nil || !c.overdue || !c.bodyDone || c.watchDone != nil {
		return
	}
	done, cancel := make(chan struct{}), c.cancel
	c.watchDone = done
	go func() {
		if _, err := c.br.Peek(1); err != nil {
			cancel()
		}
		close(done)
	}()
}

// body is a request body that reports its EOF to the watch: only then is br
// free for it.
type body struct {
	io.ReadCloser
	c *conn
}

func (b body) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.c.mark(false)
	}
	return n, err
}

// response is the http.ResponseWriter of one request.
type response struct {
	c       *conn
	req     *http.Request
	header  http.Header
	status  int   // 0 until WriteHeader
	cl      int64 // the Content-Length, -1 when unknown
	written int64
	keep    bool // the connection can carry another request
	sent    bool // the head is written
	chunked bool
	noBody  bool  // HEAD, 1xx, 204 and 304: writes are dropped
	closed  bool  // Close has run
	err     error // Close's
}

// errClosed is a write after the response was closed.
var errClosed = errors.New("serve: write after Close")

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	w.status = code
	w.noBody = w.req.Method == http.MethodHead || code < 200 || code == http.StatusNoContent || code == http.StatusNotModified
	if n, err := strconv.ParseInt(w.header.Get("Content-Length"), 10, 64); err == nil && n >= 0 {
		w.cl = n
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errClosed
	}
	if !w.sent {
		w.commit(false, p)
	}
	switch {
	case w.cl >= 0 && w.written+int64(len(p)) > w.cl:
		return 0, http.ErrContentLength
	case w.noBody || len(p) == 0:
		return len(p), nil
	}
	bw := w.c.bw
	if w.chunked {
		w.c.head = append(strconv.AppendInt(w.c.head[:0], int64(len(p)), 16), '\r', '\n')
		_, _ = bw.Write(w.c.head)
	}
	n, err := bw.Write(p)
	if w.chunked && err == nil {
		_, err = bw.WriteString("\r\n")
	}
	w.written += int64(n)
	return n, err
}

// Flush sends the head and everything written so far.
func (w *response) Flush() {
	if w.closed {
		return
	}
	if !w.sent {
		w.commit(false, nil)
	}
	_ = w.c.bw.Flush()
}

// Close completes the response: the head if it is not out yet, what is
// buffered and the terminating chunk leave in one write. The loop closes
// every response once its handler returns; a handler that closes it first
// learns whether the client took the whole of it: the error is the client's
// going away. Writes after Close fail.
func (w *response) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if !w.sent {
		w.commit(true, nil)
	}
	if w.chunked {
		_, _ = w.c.bw.WriteString("0\r\n\r\n")
	}
	if w.cl >= 0 && w.written < w.cl && !w.noBody {
		w.keep = false // a short body leaves the client waiting for the rest
	}
	w.err = w.c.bw.Flush()
	return w.err
}

// commit writes the head. final says the handler returned without writing;
// first is the first body write, if any, which a missing Content-Type is
// sniffed from. What the handler left of the request body is discarded, up
// to maxPostHandlerRead, or the connection closes after the response.
func (w *response) commit(final bool, first []byte) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.sent = true
	c := w.c
	if _, err := io.CopyN(io.Discard, w.req.Body, maxPostHandlerRead+1); err != io.EOF ||
		c.srv.closing.Load() || strings.EqualFold(w.header.Get("Connection"), "close") {
		w.keep = false
	}
	switch {
	case w.cl >= 0 || w.noBody:
	case final:
		w.cl = 0
	case !w.req.ProtoAtLeast(1, 1):
		w.keep = false // the body ends at the close
	default:
		w.chunked = true
	}

	h := strconv.AppendInt(append(c.head[:0], "HTTP/1.1 "...), int64(w.status), 10)
	h = append(append(append(h, ' '), http.StatusText(w.status)...), "\r\n"...)
	if now := time.Now(); now.Unix() != c.dateSec {
		c.dateSec, c.date = now.Unix(), now.UTC().AppendFormat(append(c.date[:0], "Date: "...), http.TimeFormat+"\r\n")
	}
	if _, dated := w.header["Date"]; !dated {
		h = append(h, c.date...)
	}
	for k, vs := range w.header {
		if k != "Content-Length" && k != "Transfer-Encoding" && k != "Connection" {
			for _, v := range vs {
				h = append(append(append(append(h, k...), ": "...), v...), "\r\n"...)
			}
		}
	}
	if _, typed := w.header["Content-Type"]; !typed && !w.noBody && len(first) > 0 {
		h = append(append(append(h, "Content-Type: "...), http.DetectContentType(first)...), "\r\n"...)
	}
	switch {
	case w.cl >= 0:
		h = append(strconv.AppendInt(append(h, "Content-Length: "...), w.cl, 10), "\r\n"...)
	case w.chunked:
		h = append(h, "Transfer-Encoding: chunked\r\n"...)
	}
	if !w.keep {
		h = append(h, "Connection: close\r\n"...)
	}
	c.head = append(h, "\r\n"...)
	c.bw = writers.Get().(*bufio.Writer)
	c.bw.Reset(c.rwc)
	_, _ = c.bw.Write(c.head)
}
