package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a Router.
type Config struct {
	// Replicas lists the bvqd base URLs (e.g. http://127.0.0.1:8081). At
	// least one is required; trailing slashes are trimmed.
	Replicas []string
	// Retries is how many extra passes over the preference list a request
	// makes when a pass ends with every candidate shed or cooling down after
	// a shed (0: one extra pass).
	Retries int
	// MaxRetryWait caps how long one request waits for the earliest
	// cooldown to expire before giving up and relaying the shed response
	// (0: 3s; negative: never wait).
	MaxRetryWait time.Duration
	// HealthInterval is the /healthz probe period (0: disables the health
	// loop — forwarding errors still evict members).
	HealthInterval time.Duration
	// HealthFailures is the consecutive-probe-failure threshold for
	// evicting a member from the ring (0: 2).
	HealthFailures int
	Logger         *slog.Logger
}

// member is one configured replica: its address, the connections the
// router keeps to it (upstream.go) and its mutable routing state.
type member struct {
	url    string // the name it is routed and reported by
	addr   string // host:port
	host   string // the Host header
	prefix string // the URL's path, before every request path

	mu   sync.Mutex
	idle []*upConn // at most upstreamIdleConns, the last kept on top

	healthy atomic.Bool
	// coolUntil is the unix-nano deadline of the member's current
	// Retry-After cooldown; 0 when serving.
	coolUntil atomic.Int64
	// probeFails counts consecutive health-probe failures; touched only by
	// the health loop goroutine.
	probeFails int
}

// cooling returns how much of the member's shed cooldown remains.
func (m *member) cooling() time.Duration {
	until := m.coolUntil.Load()
	if until == 0 {
		return 0
	}
	d := time.Duration(until - time.Now().UnixNano())
	if d < 0 {
		return 0
	}
	return d
}

// Router fans one client-facing listener out over a bvqd fleet. Create
// with New, serve via Handler, stop the health loop with Close.
type Router struct {
	members      []*member // configuration order; membership is fixed
	byURL        map[string]*member
	ring         atomic.Pointer[Ring]
	ringMu       sync.Mutex // serializes rebuilds
	retries      int
	maxRetryWait time.Duration
	logger       *slog.Logger
	metrics      *routerMetrics
	reqSeq       atomic.Int64

	healthStop chan struct{}
	healthDone chan struct{}
}

// New validates cfg and returns a running Router (its health loop started
// when HealthInterval > 0). All replicas start healthy; the first failed
// probe round or forwarding error corrects that.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	rt := &Router{
		byURL:        make(map[string]*member, len(cfg.Replicas)),
		retries:      cfg.Retries,
		maxRetryWait: cfg.MaxRetryWait,
		logger:       cfg.Logger,
		healthStop:   make(chan struct{}),
		healthDone:   make(chan struct{}),
	}
	if rt.retries <= 0 {
		rt.retries = 1
	}
	if rt.maxRetryWait == 0 {
		rt.maxRetryWait = 3 * time.Second
	}
	if rt.logger == nil {
		rt.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for _, raw := range cfg.Replicas {
		m, err := parseReplica(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := rt.byURL[m.url]; dup {
			return nil, fmt.Errorf("router: duplicate replica %q", m.url)
		}
		m.healthy.Store(true)
		rt.members = append(rt.members, m)
		rt.byURL[m.url] = m
	}
	rt.rebuild()
	rt.metrics = newRouterMetrics(rt)
	interval := cfg.HealthInterval
	threshold := cfg.HealthFailures
	if threshold <= 0 {
		threshold = 2
	}
	if interval > 0 {
		go rt.healthLoop(interval, threshold)
	} else {
		close(rt.healthDone)
	}
	return rt, nil
}

// Close stops the health loop. In-flight requests are unaffected.
func (rt *Router) Close() {
	select {
	case <-rt.healthStop:
	default:
		close(rt.healthStop)
	}
	<-rt.healthDone
}

// rebuild recomputes the ring from the currently healthy member set.
func (rt *Router) rebuild() {
	rt.ringMu.Lock()
	defer rt.ringMu.Unlock()
	var names []string
	for _, m := range rt.members {
		if m.healthy.Load() {
			names = append(names, m.url)
		}
	}
	rt.ring.Store(NewRing(DefaultVnodes, names))
}

// markDown evicts a member (forwarding saw a transport error, or the
// health loop hit its failure threshold) and rebalances the ring.
func (rt *Router) markDown(m *member, why error) {
	if m.healthy.CompareAndSwap(true, false) {
		rt.metrics.evictions.Inc()
		rt.logger.LogAttrs(context.Background(), slog.LevelWarn, "replica evicted",
			slog.String("replica", m.url), slog.Any("error", why))
		rt.rebuild()
	}
}

// markUp readmits a member after a successful health probe.
func (rt *Router) markUp(m *member) {
	if m.healthy.CompareAndSwap(false, true) {
		m.coolUntil.Store(0)
		rt.logger.LogAttrs(context.Background(), slog.LevelInfo, "replica readmitted",
			slog.String("replica", m.url))
		rt.rebuild()
	}
}

func (rt *Router) healthyCount() int64 {
	var n int64
	for _, m := range rt.members {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}

// candidates resolves the full preference list for key against the current
// ring, as live member handles.
func (rt *Router) candidates(key string) []*member {
	var urls [8]string // more members than that spill to the heap
	order := rt.ring.Load().AppendLookup(urls[:0], key, 0)
	out := make([]*member, 0, len(order))
	for _, url := range order {
		if m := rt.byURL[url]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", rt.handleQuery)
	mux.HandleFunc("POST /db/{name}/update", rt.handleUpdate)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// failJSON writes a router-originated error response.
func failJSON(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Request body caps. A /query body over bvqd's own cap would cost a hop only
// to be refused there.
const (
	maxQueryBody  = 1 << 20
	maxUpdateBody = 8 << 20
)

// readRequest reads a routed request's body and renders its forwarded headers.
// It answers 413 to a body over limit and 400 to any other read error or to a
// header value no replica may see, and then reports false.
func readRequest(w http.ResponseWriter, r *http.Request, limit int64) (body, hdr []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		failJSON(w, code, "reading request: %v", err)
		return nil, nil, false
	}
	if hdr, err = copyUpstreamHeaders(r.Header); err != nil {
		failJSON(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	return body, hdr, true
}

// queryProbe is the slice of a /query body the router must understand to
// route it; everything else passes through opaquely.
type queryProbe struct {
	Database string `json:"database"`
	Query    string `json:"query"`
	Stream   bool   `json:"stream"`
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, hdr, ok := readRequest(w, r, maxQueryBody)
	if !ok {
		return
	}
	var probe queryProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		failJSON(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	route := "query"
	if probe.Stream {
		route = "stream"
	}
	rt.metrics.requests.With(route).Inc()
	cands := rt.candidates(QueryKey(probe.Database, probe.Query))
	if len(cands) == 0 {
		rt.metrics.unrouted.Inc()
		failJSON(w, http.StatusServiceUnavailable, "no healthy replicas")
		return
	}
	served, resp := rt.forward(r.Context(), body, hdr, cands)
	switch {
	case resp == nil && r.Context().Err() != nil:
		// The client is gone: nobody to answer.
	case resp == nil:
		rt.metrics.unrouted.Inc()
		failJSON(w, http.StatusBadGateway, "no replica could serve the %s (tried %d)", route, len(cands))
	case probe.Stream && resp.StatusCode == http.StatusOK:
		rt.relayStream(w, resp, served)
	default:
		if resp.StatusCode == http.StatusTooManyRequests {
			rt.metrics.shedRelays.Inc()
		}
		rt.relay(w, resp, served)
	}
	rt.metrics.latency.With(route).Observe(time.Since(start).Seconds())
}

// do issues one upstream POST. A transport error evicts the member.
func (rt *Router) do(ctx context.Context, m *member, path string, hdr, body []byte) (*http.Response, error) {
	resp, err := m.roundTrip(ctx, http.MethodPost, path, hdr, body)
	if err != nil {
		if ctx.Err() == nil {
			rt.markDown(m, err)
		}
		return nil, err
	}
	rt.metrics.proxied.With(m.url).Inc()
	return resp, nil
}

// coolFromRetryAfter parks a member for the duration the replica asked for
// (its Retry-After is already jittered server-side; 1s when unparseable).
func coolFromRetryAfter(m *member, resp *http.Response) {
	secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	if err != nil || secs < 0 {
		secs = 1
	}
	m.coolUntil.Store(time.Now().Add(time.Duration(secs) * time.Second).UnixNano())
}

// forward walks a key's preference list. A member out of the ring or cooling
// down after a shed is passed over, a transport error moves down the list. It
// returns the first answer that is not a 429 — replica errors are
// authoritative: a 400 or 504 retried elsewhere would give the same answer —
// or, if every pass shed, the last 429, read into memory, so the client sees
// the fleet's own backpressure contract. Between passes it waits out the
// earliest cooldown among the members still in the ring, those that shed in
// the pass just made included, and gives up instead when that exceeds the cap;
// it never waits after the last pass. A nil response means the client went
// away or no replica could be reached.
func (rt *Router) forward(ctx context.Context, body, hdr []byte, cands []*member) (*member, *http.Response) {
	var shed *http.Response
	var shedBy *member
	for pass := 0; ; pass++ {
		for i, m := range cands {
			if !m.healthy.Load() || m.cooling() > 0 {
				continue
			}
			if pass > 0 || i > 0 {
				rt.metrics.retries.Inc()
			}
			resp, err := rt.do(ctx, m, "/query", hdr, body)
			if err != nil {
				if ctx.Err() != nil {
					return nil, nil
				}
				continue // do evicted the member; move down the list
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				return m, resp
			}
			coolFromRetryAfter(m, resp)
			captured, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(captured))
			resp.ContentLength = int64(len(captured))
			shed, shedBy = resp, m
		}
		wait := time.Duration(-1) // none: every member is out of the ring
		for _, m := range cands {
			if d := m.cooling(); m.healthy.Load() && (wait < 0 || d < wait) {
				wait = d
			}
		}
		if pass == rt.retries || wait < 0 || wait > max(rt.maxRetryWait, 0) {
			return shedBy, shed
		}
		if wait > 0 {
			select {
			case <-time.After(wait + time.Millisecond):
			case <-ctx.Done():
				return nil, nil
			}
		}
	}
}

// writeHeader starts a relayed response: the upstream's status and the
// headers a client reads, tagged with the replica that served it.
func writeHeader(w http.ResponseWriter, resp *http.Response, m *member) {
	for _, k := range []string{"Content-Type", "X-Request-Id", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Bvqrouter-Replica", m.url)
	w.WriteHeader(resp.StatusCode)
}

// relayBuf is a relay's pooled copy buffer and, for a stream, the trailer
// check's state.
type relayBuf struct {
	buf  [32 << 10]byte
	tail lineTail
}

var relayBufs = sync.Pool{New: func() any { return new(relayBuf) }}

// relay copies an upstream response — an answer, a replica's error, a shed —
// to the client as it came, with its length when the replica sent one.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, m *member) {
	defer resp.Body.Close()
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	writeHeader(w, resp, m)
	rb := relayBufs.Get().(*relayBuf)
	defer relayBufs.Put(rb)
	for {
		n, err := resp.Body.Read(rb.buf[:])
		if n > 0 {
			if _, werr := w.Write(rb.buf[:n]); werr != nil {
				return // downstream client gone
			}
		}
		if err != nil {
			return
		}
	}
}

// relayStream relays a 200 NDJSON stream byte-for-byte: the stream is
// committed to its replica, and an upstream death mid-stream is repaired by
// appending the error trailer the contract promises — the downstream client
// must never have to distinguish truncation from completion on its own. It
// sends no length: it may have a trailer to add.
func (rt *Router) relayStream(w http.ResponseWriter, resp *http.Response, served *member) {
	defer resp.Body.Close()
	writeHeader(w, resp, served)
	flusher, _ := w.(http.Flusher)

	// Each read is written whole and flushed: what the replica sent goes
	// straight out, and a burst of rows costs one downstream write.
	rb := relayBufs.Get().(*relayBuf)
	defer relayBufs.Put(rb)
	tail := &rb.tail
	tail.reset()
	var readErr error
	for {
		n, err := resp.Body.Read(rb.buf[:])
		if n > 0 {
			if _, werr := w.Write(rb.buf[:n]); werr != nil {
				return // downstream client gone; nothing to repair
			}
			tail.feed(rb.buf[:n])
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
	}
	midLine := tail.midLine()
	if readErr == nil && tail.trailer && !midLine {
		return // clean end: the replica's own trailer closed the stream
	}
	// The upstream died mid-stream without its trailer (crash, connection
	// cut). Repair the framing so the client still gets the promised
	// truncation marker, and treat the member as suspect.
	rt.metrics.streamRepairs.Inc()
	if readErr != nil {
		rt.markDown(served, readErr)
	}
	why := "upstream ended the stream without a trailer"
	if readErr != nil {
		why = readErr.Error()
	}
	if midLine {
		_, _ = io.WriteString(w, "\n")
	}
	trailer := map[string]any{
		"trailer": true,
		"error":   fmt.Sprintf("bvqrouter: replica %s cut the stream mid-answer: %s", served.url, why),
	}
	line, _ := json.Marshal(trailer)
	_, _ = w.Write(append(line, '\n'))
	if flusher != nil {
		flusher.Flush()
	}
}

// maxTrailerLine is the longest line taken for a trailer (bvqd's are under a
// kilobyte).
const maxTrailerLine = 64 << 10

// lineTail follows a stream's lines without keeping them: whether the last
// complete line was a trailer, and the unfinished line after it, kept while
// it could still be one.
type lineTail struct {
	part    []byte // the unfinished line, while it is at most maxTrailerLine
	long    bool   // the unfinished line outgrew maxTrailerLine
	trailer bool   // the last complete line is a trailer
}

func (t *lineTail) reset() { *t = lineTail{part: t.part[:0]} }

// midLine reports whether the stream so far ends inside a line.
func (t *lineTail) midLine() bool { return len(t.part) > 0 || t.long }

// feed takes the next bytes of the stream.
func (t *lineTail) feed(p []byte) {
	i := bytes.LastIndexByte(p, '\n')
	if i < 0 {
		t.extend(p)
		return
	}
	if j := bytes.LastIndexByte(p[:i], '\n'); j >= 0 {
		line := p[j+1 : i+1]
		t.trailer = len(line) <= maxTrailerLine && isTrailer(line)
	} else {
		t.extend(p[:i+1])
		t.trailer = !t.long && isTrailer(t.part)
	}
	t.part, t.long = t.part[:0], false
	t.extend(p[i+1:])
}

func (t *lineTail) extend(p []byte) {
	if t.long || len(t.part)+len(p) > maxTrailerLine {
		t.long = true
		return
	}
	t.part = append(t.part, p...)
}

// isTrailer reports whether a complete line is a stream trailer: a JSON object
// carrying "trailer":true.
func isTrailer(line []byte) bool {
	t := bytes.TrimSpace(line)
	return len(t) > 0 && t[0] == '{' && bytes.Contains(t, []byte(`"trailer":true`))
}
