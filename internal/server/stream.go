package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/trace"
)

// StreamHeader is the first NDJSON line of a streamed /query response. It
// carries everything known before the first tuple, the full answer
// cardinality included: every evaluation ends in a head value that counts
// (a popcount, a length), whatever window the stream then delivers.
type StreamHeader struct {
	RequestID string `json:"request_id"`
	Database  string `json:"database"`
	Engine    string `json:"engine"`
	Backend   string `json:"backend,omitempty"`
	Width     int    `json:"width"`
	Arity     int    `json:"arity"`
	Count     int    `json:"count"`
	// Limit and Offset echo the request's window.
	Limit        int  `json:"limit,omitempty"`
	Offset       int  `json:"offset,omitempty"`
	PlanCached   bool `json:"plan_cached"`
	ResultCached bool `json:"result_cached"`
}

// StreamTrailer is the last NDJSON line of a streamed /query response. Like
// the JSON response's count, Count is the FULL answer cardinality, whatever
// the window; it and Truth are omitted only beside Error. A stream cut by
// the server's own deadline ends with Error set; a stream cut by the client
// disconnecting ends with no trailer at all.
type StreamTrailer struct {
	Trailer   bool       `json:"trailer"`
	Count     *int       `json:"count,omitempty"`
	Truth     *bool      `json:"truth,omitempty"`
	Streamed  int64      `json:"streamed"`
	Skipped   int64      `json:"skipped"`
	Stats     *StatsJSON `json:"stats,omitempty"`
	Error     string     `json:"error,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// appendRow appends one answer tuple as its wire row — the JSON array of its
// components' values — byte for byte what encoding/json renders for the same
// []int.
func appendRow(b []byte, t relation.Tuple, value func(int) int) []byte {
	b = append(b, '[')
	for j, v := range t {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(value(v)), 10)
	}
	return append(b, ']')
}

// rowBufs pools the buffers both writers render rows into.
var rowBufs = sync.Pool{New: func() any { return new([]byte) }}

// The NDJSON delivery contract: the header line and the first row go out in
// one flush the moment row 1 exists — the evaluation is over before the
// header is written, so time to first row is the engine's plus one decode,
// and an empty answer sends its header with the trailer; every
// later line waits until streamFlushBytes are pending or a row arrives more
// than streamFlushAge after the last flush (a hit's stored text, all there
// at once, waits for the bytes alone); the trailer leaves with what is left,
// in the write that ends the response (lineBuffer.end). A fast drain costs
// a write per 32 KiB instead of one per row, and a slow one still delivers
// each row as it is found.
const (
	streamFlushBytes = 32 << 10
	streamFlushAge   = 5 * time.Millisecond
)

// lineBuffer is the NDJSON writer's pending output under that contract.
type lineBuffer struct {
	w     http.ResponseWriter
	buf   []byte
	aged  atomic.Bool // streamFlushAge has passed since the last flush
	timer *time.Timer // sets aged; armed by every flush; nil: rows never wait
}

// flush sends the pending lines to the client; it fails when the client is gone.
func (lb *lineBuffer) flush() error {
	_, err := lb.w.Write(lb.buf)
	lb.buf = lb.buf[:0]
	if f, ok := lb.w.(http.Flusher); ok && err == nil {
		f.Flush()
	}
	if lb.timer != nil {
		lb.aged.Store(false)
		lb.timer.Reset(streamFlushAge)
	}
	return err
}

// end hands the pending lines, the trailer last, to the writer. Where the
// writer can end its body itself (internal/serve's can), end returns it
// unflushed, for handleQuery to close once finish has accounted for the
// request: the lines then leave in one write with the terminating chunk, and
// a client that has the whole response sees its metrics and log line.
// Elsewhere the lines are flushed. It fails when the client is gone.
func (lb *lineBuffer) end() (io.Closer, error) {
	c, ok := lb.w.(io.Closer)
	if !ok {
		return nil, lb.flush()
	}
	_, err := lb.w.Write(lb.buf)
	lb.buf = lb.buf[:0]
	return c, err
}

// writeStream is the NDJSON writer: header line, one line per answer tuple,
// trailer line with the final statistics, delivered under the contract above.
//
// The 200 is committed with the header, so later failures surface in the
// trailer (the server's deadline, a contained panic) or as a counted
// disconnect (client gone, no trailer). The answer is whole before the header
// is written — evaluated, settled and, unless the stream is windowed, kept —
// so the drain only decodes: a window costs its window, whatever it reads
// from (a hit's codes, a leader's head, the head a follower shares), and a
// whole hit with stored text (storedRows) does not decode at all.
func (s *Server) writeStream(w http.ResponseWriter, r *http.Request, q *query, out evalOutcome) {
	text := q.storedRows(out)
	if text == nil {
		q.arm()
	}
	en := eval.NewEnumerator(q.ctx, out.answer, nil)
	defer en.Close()
	arity := q.p.Query.Arity()
	fullCount, _ := en.Count()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bp := rowBufs.Get().(*[]byte)
	lb := &lineBuffer{w: w, buf: (*bp)[:0]}
	if text == nil {
		// A cursor's rows may come slowly; stored text is all there, so its
		// lines wait for the buffer alone.
		lb.timer = time.AfterFunc(streamFlushAge, func() { lb.aged.Store(true) })
	}
	defer func() {
		if lb.timer != nil {
			lb.timer.Stop()
		}
		*bp = lb.buf
		rowBufs.Put(bp)
	}()

	hdr := StreamHeader{
		RequestID:    q.reqID,
		Database:     q.req.Database,
		Engine:       q.engineName,
		Backend:      q.wireBackend,
		Width:        q.p.WrittenWidth,
		Arity:        arity,
		Count:        fullCount,
		Limit:        q.req.Limit,
		Offset:       q.req.Offset,
		PlanCached:   q.planCached,
		ResultCached: q.cached,
	}
	lb.buf = appendHeader(lb.buf, &hdr) // sent with row 1

	// The drain span covers seek, decode and delivery: extraction, the one
	// part of answering that the window bounds. Ended by the deferred trace
	// Close when a disconnect returns early.
	//
	// The whole drain runs panic-contained: no engine executes inside
	// Next/Skip, but a cursor's decode still does, and a failure there
	// surfaces as a panic AFTER the first byte — past the point where
	// recoverPanics could still write a JSON error. Without the recover the
	// response would just stop, indistinguishable from truncation; the
	// contract (and what the router's truncation detection relies on) is that
	// every server-side death mid-stream ends with an error trailer.
	dsp := q.root.Start(trace.SpanStreamDrain)
	defer dsp.End()
	var wd windowed
	disconnected := false
	// line delivers one row — its stored bytes, or t rendered when row is nil —
	// under the contract, reporting false once the client is gone.
	line := func(row []byte, t relation.Tuple) bool {
		if s.testHookOnStreamRow != nil {
			s.testHookOnStreamRow(int(wd.delivered))
		}
		if row != nil {
			lb.buf = append(lb.buf, row...)
		} else {
			lb.buf = appendRow(lb.buf, t, q.snap.Value)
		}
		lb.buf = append(lb.buf, '\n')
		if wd.delivered == 0 || len(lb.buf) >= streamFlushBytes || lb.aged.Load() {
			disconnected = lb.flush() != nil
		}
		return !disconnected
	}
	var drainPanic error
	func() {
		defer s.containPanic(q.ctx, "stream drain panic", q.reqID, q.req.Query, &drainPanic)
		if text != nil {
			wd.drainText(text, func(row []byte) bool { return line(row, nil) })
			return
		}
		wd.drain(en, q.req.Offset, q.req.Limit, func(t relation.Tuple) bool { return line(nil, t) })
	}()
	if disconnected {
		s.metrics.streamDisconnects.Inc()
		return
	}

	trailer := StreamTrailer{Trailer: true, Streamed: wd.delivered, Skipped: wd.skipped, Stats: out.stats}
	if out.stats != nil && !q.cached && !q.coalesced {
		// The run was this request's, so its statistics carry this drain; a
		// copy does, because the run's own are the cache's and the followers'.
		st := *out.stats
		st.TuplesStreamed, st.TuplesSkipped = wd.delivered, wd.skipped
		trailer.Stats = &st
	}
	err := en.Err()
	if err == nil {
		err = drainPanic
	}
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away: nobody is reading, so no trailer — just
			// count the cut.
			s.metrics.streamDisconnects.Inc()
			return
		}
		// The server's own deadline — or a contained drain panic — cut the
		// stream: the status line is long gone, so report it in the trailer.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.metrics.timeouts.Inc()
		}
		trailer.Error = err.Error()
	} else {
		trailer.Count = &fullCount
		if arity == 0 {
			truth := fullCount > 0
			trailer.Truth = &truth
		}
	}
	trailer.ElapsedMS = float64(time.Since(q.start).Microseconds()) / 1000
	lb.buf = appendTrailer(lb.buf, &trailer)
	if q.end, err = lb.end(); err != nil {
		s.metrics.streamDisconnects.Inc()
	}
}
