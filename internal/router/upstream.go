package router

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"
)

// upstreamIdleConns is how many idle connections a member keeps: above the
// caller count of any sane deployment, so a steady load re-dials nothing.
const upstreamIdleConns = 256

// upstreamTimeout bounds one round trip, its body read included.
const upstreamTimeout = 5 * time.Minute

var upstreamDialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

// longAgo is the deadline that fails a connection's pending and later I/O.
var longAgo = time.Unix(1, 0)

// parseReplica turns a configured replica into its URL (the member's name)
// and the address the client dials. bvqd serves plain HTTP, and the client
// speaks nothing else.
func parseReplica(raw string) (*member, error) {
	s := strings.TrimRight(raw, "/")
	if s == "" {
		return nil, fmt.Errorf("router: empty replica URL")
	}
	if strings.HasPrefix(s, "https://") {
		return nil, fmt.Errorf("router: replica %q: bvqd serves no TLS, so the router speaks plain HTTP only", raw)
	}
	if !strings.HasPrefix(s, "http://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("router: replica %q is not an http://host:port URL", raw)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &member{url: s, addr: addr, host: u.Host, prefix: u.EscapedPath()}, nil
}

// forwardedHeaders are the client headers a replica cares about: content
// negotiation and W3C trace context (so replica traces stitch into the
// caller's), never hop-by-hop headers.
var forwardedHeaders = [...]string{"Content-Type", "Accept", "Traceparent", "Tracestate", "X-Request-Id"}

// copyUpstreamHeaders renders the forwarded headers of src as request header
// lines, with application/json for a missing Content-Type. It refuses a value
// with a control byte other than HTAB, as net/http's client does: a CR or LF
// would split the header on its way to the replica.
func copyUpstreamHeaders(src http.Header) ([]byte, error) {
	var b []byte
	for _, k := range forwardedHeaders {
		v := src.Get(k)
		if v == "" && k == "Content-Type" {
			v = "application/json"
		}
		if v == "" {
			continue
		}
		for i := 0; i < len(v); i++ {
			if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
				return nil, fmt.Errorf("invalid %s header value: control byte %#02x", k, c)
			}
		}
		b = append(append(append(append(b, k...), ": "...), v...), "\r\n"...)
	}
	return b, nil
}

// upConn is one connection to a replica, with its buffered ends.
type upConn struct {
	net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	expire func() // fails the connection's I/O: a cancelled round trip
}

func (m *member) dial(ctx context.Context) (*upConn, error) {
	nc, err := upstreamDialer.DialContext(ctx, "tcp", m.addr)
	if err != nil {
		return nil, err
	}
	return &upConn{Conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc),
		expire: func() { _ = nc.SetDeadline(longAgo) }}, nil
}

// takeIdle returns the connection the member kept last, or nil.
func (m *member) takeIdle() *upConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.idle)
	if n == 0 {
		return nil
	}
	c := m.idle[n-1]
	m.idle[n-1] = nil
	m.idle = m.idle[:n-1]
	return c
}

// keep gives a connection whose response was read to its end back to the
// member, or closes it when the member keeps enough or the replica sent
// bytes past the response.
func (m *member) keep(c *upConn) {
	m.mu.Lock()
	if len(m.idle) < upstreamIdleConns && c.br.Buffered() == 0 {
		m.idle, c = append(m.idle, c), nil
	}
	m.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// roundTrip sends one request to the member and reads the response head, in
// the caller's goroutine: the request line, Host, the header lines hdr
// (copyUpstreamHeaders' rendering), Content-Length and the body go out in one
// flush, and the body streams from the connection afterwards. A kept
// connection that fails before the first response byte (the replica closed it
// while it was idle) is replaced by one fresh dial; an error on a fresh
// connection is the caller's to judge. A cancelled ctx fails the connection's
// I/O, and that connection is closed, never kept.
func (m *member) roundTrip(ctx context.Context, method, path string, hdr, body []byte) (*http.Response, error) {
	c, kept := m.takeIdle(), true
	for {
		if c == nil {
			var err error
			if c, err = m.dial(ctx); err != nil {
				return nil, err
			}
			kept = false
		}
		stop := context.AfterFunc(ctx, c.expire)
		err := c.SetDeadline(time.Now().Add(upstreamTimeout))
		if err == nil {
			err = c.send(method, m.prefix+path, m.host, hdr, body)
		}
		if err == nil {
			_, err = c.br.Peek(1)
		}
		if err != nil {
			stop()
			c.Close()
			if kept && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
				c = nil // no response byte: the replica closed it while idle
				continue
			}
			return nil, err
		}
		resp, err := http.ReadResponse(c.br, nil)
		if err != nil {
			stop()
			c.Close()
			return nil, err
		}
		resp.Body = &upBody{ReadCloser: resp.Body, m: m, c: c, stop: stop,
			reusable: !resp.Close, eof: resp.Body == http.NoBody}
		return resp, nil
	}
}

// send writes one request and flushes it (a bufio.Writer keeps its first
// error, so Flush reports any).
func (c *upConn) send(method, target, host string, hdr, body []byte) error {
	bw := c.bw
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(target)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	bw.WriteString("\r\n")
	bw.Write(hdr)
	if method != http.MethodGet {
		var n [20]byte
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(n[:0], int64(len(body)), 10))
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	bw.Write(body)
	return bw.Flush()
}

// upBody is a response body on a member's connection. Read to its end, its
// Close gives the connection back, unless the response said Connection: close
// or the round trip's context ended; any other Close closes the connection,
// since draining an unread rest can cost more than a dial.
type upBody struct {
	io.ReadCloser // the body http.ReadResponse framed; never closed, it would drain
	m             *member
	c             *upConn // nil once closed
	stop          func() bool
	reusable      bool
	eof           bool
}

func (b *upBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *upBody) Close() error {
	c := b.c
	if c == nil {
		return nil
	}
	b.c = nil
	if b.stop() && b.eof && b.reusable {
		b.m.keep(c)
	} else {
		c.Close()
	}
	return nil
}
