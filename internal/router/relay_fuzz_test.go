package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// cutReader serves its bytes and then ends with err instead of io.EOF when
// err is set: a replica that died mid-stream.
type cutReader struct {
	r   *bytes.Reader
	err error
}

func (c *cutReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF && c.err != nil {
		err = c.err
	}
	return n, err
}

// endsWithTrailer reports whether up ends in a newline and its last line is
// a JSON object carrying "trailer":true. A line that fills the relay's
// 64 KiB reader is not read whole and is never taken for a trailer (bvqd's
// are under a kilobyte).
func endsWithTrailer(up []byte) bool {
	if len(up) == 0 || up[len(up)-1] != '\n' {
		return false
	}
	last := up[bytes.LastIndexByte(up[:len(up)-1], '\n')+1:]
	t := bytes.TrimSpace(last)
	return len(last) <= 64<<10 && len(t) > 0 && t[0] == '{' && bytes.Contains(t, []byte(`"trailer":true`))
}

// FuzzStreamRelay drives relayStream over upstream bytes: the fuzzed ones,
// optionally behind 64 KiB or more without a newline (a line longer than the
// relay's reader holds), optionally followed by a trailer, with or without
// the final newline, ended cleanly or by a read error. The client gets the
// upstream bytes exactly, and nothing more when the upstream closed itself
// with a trailer; otherwise exactly one router trailer line (after a newline
// if the upstream stopped mid-line), and only then does
// bvqrouter_stream_repairs_total move.
func FuzzStreamRelay(f *testing.F) {
	const header, rows = `{"request_id":"r","width":2}` + "\n", "[0,1]\n[1,2]\n"
	f.Add([]byte(header+rows), uint16(0), true, true, false)
	f.Add([]byte(header+"[0,"), uint16(0), false, false, false)
	f.Add([]byte(header), uint16(7), true, true, false)
	f.Add([]byte(`{"trailer":true}`+"\n"), uint16(1), false, true, false)
	f.Add([]byte(header+rows), uint16(0), true, true, true)
	f.Add([]byte(header+rows), uint16(0), true, false, false)
	f.Add([]byte{}, uint16(0), false, true, false)
	rt, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}})
	if err != nil {
		f.Fatal(err)
	}
	defer rt.Close()
	m := rt.members[0]
	f.Fuzz(func(t *testing.T, data []byte, long uint16, trailer, finalNewline, cut bool) {
		var up []byte
		if long > 0 { // a line the relay's reader cannot hold, continued by data
			up = bytes.Repeat([]byte{'x'}, 64<<10+int(long)-1)
		}
		up = append(up, data...)
		if trailer {
			up = append(up, `{"trailer":true,"count":2}`+"\n"...)
		}
		if !finalNewline {
			up = bytes.TrimSuffix(up, []byte("\n"))
		}
		body := &cutReader{r: bytes.NewReader(up)}
		if cut {
			body.err = errors.New("connection reset by peer")
		}
		before := rt.metrics.streamRepairs.Value()
		rec := httptest.NewRecorder()
		rt.relayStream(rec, &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
			Body:       io.NopCloser(body),
		}, m)
		got, repairs := rec.Body.Bytes(), rt.metrics.streamRepairs.Value()-before

		if rec.Code != http.StatusOK || !bytes.HasPrefix(got, up) {
			t.Fatalf("status %d; the client's bytes do not start with the upstream's", rec.Code)
		}
		rest := got[len(up):]
		if !cut && endsWithTrailer(up) {
			if len(rest) != 0 || repairs != 0 {
				t.Fatalf("a stream closed by its own trailer got %q appended (%d repairs)", rest, repairs)
			}
			return
		}
		if repairs != 1 {
			t.Fatalf("%d repairs counted for a stream without its trailer, want 1", repairs)
		}
		if len(up) > 0 && up[len(up)-1] != '\n' {
			if len(rest) == 0 || rest[0] != '\n' {
				t.Fatalf("a stream cut mid-line got %q, want a newline first", rest)
			}
			rest = rest[1:]
		}
		var tr struct {
			Trailer bool   `json:"trailer"`
			Error   string `json:"error"`
		}
		if bytes.IndexByte(rest, '\n') != len(rest)-1 || json.Unmarshal(rest, &tr) != nil || !tr.Trailer || tr.Error == "" {
			t.Fatalf("appended %q, want one router trailer line", rest)
		}
	})
}
