package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a Router.
type Config struct {
	// Replicas lists the bvqd base URLs (e.g. http://127.0.0.1:8081). At
	// least one is required; trailing slashes are trimmed.
	Replicas []string
	// Vnodes is the number of ring points per replica (0: DefaultVnodes).
	Vnodes int
	// Retries is how many extra passes over the preference list a request
	// makes when a pass ends with every candidate shed or cooling down after
	// a shed (0: one extra pass).
	Retries int
	// MaxRetryWait caps how long one request waits for the earliest
	// cooldown to expire before giving up and relaying the shed response
	// (0: 3s; negative: never wait).
	MaxRetryWait time.Duration
	// HedgeDelay, when positive, arms hedged retries for idempotent JSON
	// reads: if the preferred replica has not answered within this delay, a
	// second identical request races to the next replica and the first
	// response wins. Streams are never hedged — their first byte commits.
	HedgeDelay time.Duration
	// HealthInterval is the /healthz probe period (0: disables the health
	// loop — forwarding errors still evict members).
	HealthInterval time.Duration
	// HealthFailures is the consecutive-probe-failure threshold for
	// evicting a member from the ring (0: 2).
	HealthFailures int
	// Client is the upstream HTTP client (nil: a client with sensible
	// timeouts for intra-fleet traffic).
	Client *http.Client
	Logger *slog.Logger
}

// member is one configured replica and its mutable routing state.
type member struct {
	url     string
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
	vnodes       int
	retries      int
	maxRetryWait time.Duration
	hedgeDelay   time.Duration
	client       *http.Client
	logger       *slog.Logger
	metrics      *routerMetrics
	reqSeq       atomic.Int64

	healthStop chan struct{}
	healthDone chan struct{}
}

// upstreamIdleConns is how many idle connections the fallback client keeps
// per replica: above the caller count of any sane deployment, so a steady
// load re-dials nothing.
const upstreamIdleConns = 256

// New validates cfg and returns a running Router (its health loop started
// when HealthInterval > 0). All replicas start healthy; the first failed
// probe round or forwarding error corrects that.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	rt := &Router{
		byURL:        make(map[string]*member, len(cfg.Replicas)),
		vnodes:       cfg.Vnodes,
		retries:      cfg.Retries,
		maxRetryWait: cfg.MaxRetryWait,
		hedgeDelay:   cfg.HedgeDelay,
		client:       cfg.Client,
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
	if rt.client == nil {
		// The default transport keeps 2 idle connections per host: with more
		// callers than that on one replica, hops keep re-dialling.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = upstreamIdleConns
		tr.MaxIdleConns = 0 // no cap across replicas beyond the per-replica one
		rt.client = &http.Client{Timeout: 5 * time.Minute, Transport: tr}
	}
	if rt.logger == nil {
		rt.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for _, raw := range cfg.Replicas {
		u := strings.TrimRight(raw, "/")
		if u == "" {
			return nil, fmt.Errorf("router: empty replica URL")
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			u = "http://" + u
		}
		if _, dup := rt.byURL[u]; dup {
			return nil, fmt.Errorf("router: duplicate replica %q", u)
		}
		m := &member{url: u}
		m.healthy.Store(true)
		rt.members = append(rt.members, m)
		rt.byURL[u] = m
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
	rt.ring.Store(NewRing(rt.vnodes, names))
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

// copyUpstreamHeaders forwards the client headers a replica cares about:
// content negotiation and W3C trace context (so replica traces stitch into
// the caller's), never hop-by-hop headers.
func copyUpstreamHeaders(dst http.Header, src http.Header) {
	for _, k := range []string{"Content-Type", "Accept", "Traceparent", "Tracestate", "X-Request-Id"} {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
	if dst.Get("Content-Type") == "" {
		dst.Set("Content-Type", "application/json")
	}
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		failJSON(w, http.StatusRequestEntityTooLarge, "reading request: %v", err)
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
	served, resp := rt.forward(r, body, cands, !probe.Stream)
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
func (rt *Router) do(ctx context.Context, m *member, path string, body []byte, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyUpstreamHeaders(req.Header, hdr)
	resp, err := rt.client.Do(req)
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

// cancelBody ties an upstream request context to its response body: the
// context may only be cancelled once the caller is done streaming the body,
// so Close carries the cancel.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// hedgedDo races prim against backup: backup launches only if prim has not
// responded within the hedge delay (or died before it). The first
// transport-level success wins, whatever its status code — a 429 is an
// answer, handled by the caller — and the loser is cancelled mid-flight
// and reaped in the background. backup == nil degrades to a plain do.
func (rt *Router) hedgedDo(ctx context.Context, prim, backup *member, path string, body []byte, hdr http.Header) (*member, *http.Response, error) {
	if backup == nil || rt.hedgeDelay <= 0 {
		resp, err := rt.do(ctx, prim, path, body, hdr)
		return prim, resp, err
	}
	type outcome struct {
		m    *member
		resp *http.Response
		err  error
	}
	ch := make(chan outcome, 2)
	pctx, pcancel := context.WithCancel(ctx)
	bctx, bcancel := context.WithCancel(ctx)
	run := func(c context.Context, m *member) {
		resp, err := rt.do(c, m, path, body, hdr)
		ch <- outcome{m: m, resp: resp, err: err}
	}
	go run(pctx, prim)
	launched, outstanding := 1, 1
	timer := time.NewTimer(rt.hedgeDelay)
	defer timer.Stop()
	hedge := func() {
		rt.metrics.hedges.Inc()
		go run(bctx, backup)
		launched, outstanding = 2, outstanding+1
	}
	reap := func(n int) {
		if n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					if o := <-ch; o.resp != nil {
						_, _ = io.Copy(io.Discard, o.resp.Body)
						o.resp.Body.Close()
					}
				}
			}()
		}
	}
	var firstErr error
	for {
		select {
		case <-timer.C:
			if launched == 1 {
				hedge()
			}
		case o := <-ch:
			outstanding--
			if o.err != nil {
				if firstErr == nil {
					firstErr = o.err
				}
				if launched == 1 {
					hedge() // primary died before the hedge timer fired
					continue
				}
				if outstanding == 0 {
					pcancel()
					bcancel()
					return prim, nil, firstErr
				}
				continue
			}
			// Winner: cancel the loser mid-flight (its do sees a cancelled
			// context, so it is not evicted for losing the race) and defer
			// the winner's own cancel to its body Close.
			winCancel := pcancel
			if o.m == prim {
				bcancel()
			} else {
				winCancel = bcancel
				pcancel()
				rt.metrics.hedgeWins.Inc()
			}
			reap(outstanding)
			o.resp.Body = &cancelBody{ReadCloser: o.resp.Body, cancel: winCancel}
			return o.m, o.resp, nil
		case <-ctx.Done():
			pcancel()
			bcancel()
			reap(outstanding)
			return prim, nil, ctx.Err()
		}
	}
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
// away or no replica could be reached. With hedge set an attempt races the
// next available member after the hedge delay; a stream passes false, since
// its first byte commits it to one replica.
func (rt *Router) forward(r *http.Request, body []byte, cands []*member, hedge bool) (*member, *http.Response) {
	ctx := r.Context()
	var shed *http.Response
	var shedBy *member
	for pass := 0; ; pass++ {
		for i, m := range cands {
			if !m.healthy.Load() || m.cooling() > 0 {
				continue
			}
			var backup *member
			for j := i + 1; hedge && j < len(cands); j++ {
				if cands[j].healthy.Load() && cands[j].cooling() == 0 {
					backup = cands[j]
					break
				}
			}
			if pass > 0 || i > 0 {
				rt.metrics.retries.Inc()
			}
			served, resp, err := rt.hedgedDo(ctx, m, backup, "/query", body, r.Header)
			if err != nil {
				if ctx.Err() != nil {
					return nil, nil
				}
				continue // members already evicted; move down the list
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				return served, resp
			}
			coolFromRetryAfter(served, resp)
			captured, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(captured))
			shed, shedBy = resp, served
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

// relay copies an upstream response — an answer, a replica's error, a shed —
// to the client as it came.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, m *member) {
	defer resp.Body.Close()
	writeHeader(w, resp, m)
	_, _ = io.Copy(w, resp.Body)
}

// relayStream relays a 200 NDJSON stream byte-for-byte: the stream is
// committed to its replica, and an upstream death mid-stream is repaired by
// appending the error trailer the contract promises — the downstream client
// must never have to distinguish truncation from completion on its own.
func (rt *Router) relayStream(w http.ResponseWriter, resp *http.Response, served *member) {
	defer resp.Body.Close()
	writeHeader(w, resp, served)
	flusher, _ := w.(http.Flusher)

	// Lines are relayed as they are read and flushed whenever the upstream
	// has nothing more buffered: a replica that flushed a row sees it go
	// straight out, and a burst of rows costs one downstream write, not one
	// per line.
	br := streamReaders.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	defer func() {
		br.Reset(nil) // a pooled reader must not pin the response it last read
		streamReaders.Put(br)
	}()
	sawTrailer := false // the last complete line was a trailer
	endedMidLine := false
	var readErr error
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if _, werr := w.Write(line); werr != nil {
				return // downstream client gone; nothing to repair
			}
			// A piece that continues an over-long line is no line of its own.
			whole := !endedMidLine
			endedMidLine = line[len(line)-1] != '\n'
			if !endedMidLine {
				trimmed := bytes.TrimSpace(line)
				sawTrailer = whole && len(trimmed) > 0 && trimmed[0] == '{' &&
					bytes.Contains(trimmed, []byte(`"trailer":true`))
			}
		}
		if err != nil && err != bufio.ErrBufferFull {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		if flusher != nil && br.Buffered() == 0 {
			flusher.Flush()
		}
	}
	if readErr == nil && sawTrailer && !endedMidLine {
		return // clean end (returning flushes): the replica's own trailer closed the stream
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
	if endedMidLine {
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

// streamReaders recycles relayStream's 64 KiB line buffers: one a stream
// was the largest single allocation of a routed drain.
var streamReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}
