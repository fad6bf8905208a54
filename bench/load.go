package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the outcome of one operation.
type sample struct {
	kind    opKind
	end     time.Duration // completion, since the start of the phase
	latency time.Duration // request sent → response fully read and checked
	ttft    time.Duration // drains: request sent → first row line
	rows    int           // drains: row lines read
	failed  bool
}

// driver sends a workload's operations to one target and checks every
// answer against the oracle.
type driver struct {
	w      *workload
	target string
	client *http.Client
	// expects[state][query]: state 0 is the generated content; in the churn
	// workload state 1+i is that content plus churnEdges[i].
	expects [][]expect
	// Request bodies, marshalled once: the clients should spend their time
	// waiting for the server, not building JSON.
	readBody, drainBody [][]byte

	// Version bookkeeping for the churn workload. Only client 0 writes, so
	// versions are issued in one order; states[v] is the content state at
	// version v. A read races with at most the write in flight, so its
	// answer must be the oracle's at some version between the last one
	// acknowledged before it was sent and the last one issued when it
	// returned.
	mu     sync.Mutex
	states []int
	acked  atomic.Int64
	issued atomic.Int64

	failMu   sync.Mutex
	failures []string // the first few, for the report
}

func newDriver(w *workload, target string, clients int) *driver {
	d := &driver{
		w:      w,
		target: target,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        4 * clients,
				MaxIdleConnsPerHost: 2 * clients,
				DisableCompression:  true,
			},
		},
	}
	d.restart()
	base := make([]expect, len(w.queries))
	for i, q := range w.queries {
		base[i] = q.answer(w.graphs[q.db]).expect()
	}
	d.expects = append(d.expects, base)
	for _, e := range w.churnEdges {
		g := w.graphs[0].withEdge(0, e[0], e[1])
		with := make([]expect, len(w.queries))
		for i, q := range w.queries {
			with[i] = q.answer(g).expect()
		}
		d.expects = append(d.expects, with)
	}
	for _, q := range w.queries {
		req := map[string]any{"database": w.graphs[q.db].name, "query": q.wire, "engine": "compiled"}
		d.readBody = append(d.readBody, mustJSON(req))
		req["stream"] = true
		d.drainBody = append(d.drainBody, mustJSON(req))
	}
	return d
}

// restart puts the version bookkeeping back to that of freshly started
// servers: version 0, the generated content.
func (d *driver) restart() {
	d.states = []int{0}
	d.acked.Store(0)
	d.issued.Store(0)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func (d *driver) fail(format string, args ...any) {
	d.failMu.Lock()
	if len(d.failures) < 8 {
		d.failures = append(d.failures, fmt.Sprintf(format, args...))
	}
	d.failMu.Unlock()
}

// conn is one client's reusable buffers.
type conn struct {
	buf bytes.Buffer
	br  *bufio.Reader
}

// do performs one op, checks the answer and returns its sample. phaseStart
// anchors sample.end.
func (d *driver) do(c *conn, o op, phaseStart time.Time) sample {
	s := sample{kind: o.kind}
	start := time.Now()
	var err error
	switch o.kind {
	case opRead:
		err = d.read(c, o)
	case opDrain:
		err = d.drain(c, o, start, &s)
	case opUpdate:
		err = d.update(c, o)
	}
	now := time.Now()
	s.latency, s.end = now.Sub(start), now.Sub(phaseStart)
	if err != nil {
		s.failed = true
		d.fail("%v", err)
	}
	return s
}

func (d *driver) post(path string, body []byte) (*http.Response, error) {
	resp, err := d.client.Post(d.target+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// matches reports whether (count, hash) is the oracle's answer for query q
// at some version in [lo, hi]. limit selects the LIMIT-prefix expectation.
func (d *driver) matches(q int, lo, hi int64, rows int, hash uint64, limit int) bool {
	d.mu.Lock()
	states := d.states[lo : hi+1]
	d.mu.Unlock()
	for _, st := range states {
		e := d.expects[st][q]
		if limit > 0 {
			if rows == min(e.count, e.limitRows) && hash == e.limitHash {
				return true
			}
		} else if rows == e.count && hash == e.hash {
			return true
		}
	}
	return false
}

func (d *driver) read(c *conn, o op) error {
	lo := d.acked.Load()
	resp, err := d.post(d.request(o))
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	hi := d.issued.Load()
	body := c.buf.Bytes()
	inner, rest, ok := cutAnswer(body)
	if !ok {
		return fmt.Errorf("%s: no answer array in the response", d.w.queries[o.query].wire)
	}
	count, ok := intField(rest, `"count":`)
	if !ok {
		return fmt.Errorf("%s: no count in the response", d.w.queries[o.query].wire)
	}
	if !d.matches(o.query, lo, hi, count, fnvAdd(fnvOffset, inner), 0) {
		return fmt.Errorf("%s: wrong answer (%d rows)", d.w.queries[o.query].wire, count)
	}
	return nil
}

// cutAnswer splits a /query JSON body around its answer array: inner is
// what stands between the outer brackets, rest is the body with the array
// removed. Rows hold only integers, so bracket depth finds the end.
func cutAnswer(body []byte) (inner, rest []byte, ok bool) {
	const key = `"answer":[`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil, nil, false
	}
	start := i + len(key)
	depth := 1
	for j := start; j < len(body); j++ {
		switch body[j] {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return body[start:j], append(body[:i:i], body[j+1:]...), true
			}
		}
	}
	return nil, nil, false
}

// intField reads the integer that follows key in a JSON object's bytes.
func intField(b []byte, key string) (int, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	n, err := strconv.Atoi(string(b[j:k]))
	return n, err == nil
}

func (d *driver) drain(c *conn, o op, start time.Time, s *sample) error {
	lo := d.acked.Load()
	resp, err := d.post(d.request(o))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if c.br == nil {
		c.br = bufio.NewReaderSize(resp.Body, 64<<10)
	} else {
		c.br.Reset(resp.Body)
	}
	wire := d.w.queries[o.query].wire
	hash := uint64(fnvOffset)
	header := false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("%s: stream ended without a trailer: %w", wire, err)
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		switch {
		case len(line) > 0 && line[0] == '[':
			if s.rows == 0 {
				s.ttft = time.Since(start)
			} else {
				hash = fnvAdd(hash, []byte{','})
			}
			hash = fnvAdd(hash, line)
			s.rows++
		case !header:
			header = true
		default:
			// The trailer.
			if s.rows == 0 {
				s.ttft = time.Since(start)
			}
			if !bytes.Contains(line, []byte(`"trailer":true`)) {
				return fmt.Errorf("%s: unexpected stream line %.80q", wire, line)
			}
			if bytes.Contains(line, []byte(`"error":`)) {
				return fmt.Errorf("%s: error trailer %.200s", wire, line)
			}
			hi := d.issued.Load()
			if streamed, ok := intField(line, `"streamed":`); !ok || streamed != s.rows {
				return fmt.Errorf("%s: trailer says %d rows streamed, %d read", wire, streamed, s.rows)
			}
			// A LIMIT that cuts a non-counting route short has no count.
			if count, ok := intField(line, `"count":`); ok && o.limit == 0 && count != s.rows {
				return fmt.Errorf("%s: trailer count %d, %d rows read", wire, count, s.rows)
			}
			if !d.matches(o.query, lo, hi, s.rows, hash, o.limit) {
				return fmt.Errorf("%s: wrong streamed answer (%d rows)", wire, s.rows)
			}
			// Read to the end of the body: closing it early would tear the
			// connection down (and make a router evict the replica).
			_, err := io.Copy(io.Discard, c.br)
			return err
		}
	}
}

// update issues write number o.write: an insert of a pooled edge when even,
// the delete of the same edge when odd.
func (d *driver) update(c *conn, o op) error {
	verb, _ := d.w.churnWrite(o.write)
	state := 0
	if verb == "insert" {
		state = 1 + o.write/2%len(d.w.churnEdges)
	}
	d.mu.Lock()
	version := int64(len(d.states))
	d.states = append(d.states, state)
	d.mu.Unlock()
	d.issued.Store(version)
	resp, err := d.post(d.request(o))
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if got, ok := intField(c.buf.Bytes(), `"version":`); !ok || int64(got) != version {
		return fmt.Errorf("update %d (%s): server at version %d, expected %d", o.write, verb, got, version)
	}
	d.acked.Store(version)
	return nil
}

// churnWrite decodes write number k: insert when even, delete when odd.
func (w *workload) churnWrite(k int) (verb string, edge [2]int) {
	edge = w.churnEdges[k/2%len(w.churnEdges)]
	if k%2 == 1 {
		return "delete", edge
	}
	return "insert", edge
}

func (w *workload) updateBody(k int) []byte {
	verb, e := w.churnWrite(k)
	return []byte(fmt.Sprintf(`{"updates":[{"relation":"E0",%q:[[%d,%d]]}]}`, verb, e[0], e[1]))
}

// request renders op o as the path and body the clients send.
func (d *driver) request(o op) (string, []byte) {
	switch o.kind {
	case opDrain:
		b := d.drainBody[o.query]
		if o.limit > 0 {
			// The body ends in "}": splice the limit in.
			b = append(append([]byte(nil), b[:len(b)-1]...), fmt.Sprintf(`,"limit":%d}`, o.limit)...)
		}
		return "/query", b
	case opUpdate:
		return "/db/" + d.w.graphs[0].name + "/update", d.w.updateBody(o.write)
	}
	return "/query", d.readBody[o.query]
}

// warmUp sends the workload's warm-up pass from one client.
func (d *driver) warmUp() error {
	c := &conn{}
	start := time.Now()
	for _, o := range d.w.warm {
		if s := d.do(c, o, start); s.failed {
			return fmt.Errorf("warm-up failed: %s", d.failures[len(d.failures)-1])
		}
	}
	return nil
}

// phase runs the closed loop: every client sends its next op as soon as the
// previous one is checked. It stops at the first op boundary after length
// has passed, or, when ops > 0, after exactly ops operations per client —
// the fixed-work mode the determinism check needs. It returns each client's
// samples and the wall time from the common start to the last completion.
func (d *driver) phase(length time.Duration, ops int) ([][]sample, time.Duration) {
	out := make([][]sample, len(d.w.seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, seq := range d.w.seqs {
		wg.Add(1)
		go func(ci int, seq []op) {
			defer wg.Done()
			c := &conn{}
			for i := 0; ; i++ {
				if ops > 0 && i == ops || ops == 0 && time.Since(start) >= length {
					return
				}
				out[ci] = append(out[ci], d.do(c, seq[i%len(seq)], start))
			}
		}(ci, seq)
	}
	wg.Wait()
	return out, time.Since(start)
}
