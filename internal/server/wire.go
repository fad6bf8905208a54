package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/eval"
	"repro/internal/querybody"
)

// maxQueryBody is the largest /query body read; a longer one is a 413.
const maxQueryBody = 1 << 20

// bodyBufs pools the buffers /query bodies are read into; a buffer grown past
// 64 KiB is left to the collector.
var bodyBufs = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 4<<10)) }}

// decodeQuery reads r's body, at most maxQueryBody bytes, into *req. The
// scanner (querybody.Scan) decodes the body when it can; encoding/json decodes
// the rest, and a body cut short by the cap or by the client reaches it as the
// bytes read and then the read's error, so every decoding error it answers is
// the one it gave when it read the body itself.
func decodeQuery(w http.ResponseWriter, r *http.Request, req *QueryRequest) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= 64<<10 {
			bodyBufs.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err == nil && querybody.Scan(buf.Bytes(), (*querybody.Request)(req)) {
		return nil
	}
	src := io.Reader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// errReader is a reader that fails with its error.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// The appenders below write the /query response bodies byte for byte as
// encoding/json's Encoder with SetEscapeHTML(false) writes the wire structs
// (FuzzWireAppenders holds them to it), without reflection.

// appendAnswerHead appends r's JSON object up to its answer field's value.
func appendAnswerHead(b []byte, r *QueryResponse) []byte {
	b = appendIdentity(b, r.RequestID, r.Database, r.Engine, r.Backend, r.Width, r.Arity)
	if r.Truth != nil {
		b = strconv.AppendBool(append(b, `,"truth":`...), *r.Truth)
	}
	return append(b, `,"answer":`...)
}

// appendIdentity opens a response object or a stream header with the fields
// both lead with: request_id, database, engine, backend (omitted when empty),
// width and arity.
func appendIdentity(b []byte, reqID, database, engine, backend string, width, arity int) []byte {
	b = appendString(append(b, `{"request_id":`...), reqID)
	b = appendString(append(b, `,"database":`...), database)
	b = appendString(append(b, `,"engine":`...), engine)
	if backend != "" {
		b = appendString(append(b, `,"backend":`...), backend)
	}
	b = strconv.AppendInt(append(b, `,"width":`...), int64(width), 10)
	return strconv.AppendInt(append(b, `,"arity":`...), int64(arity), 10)
}

// appendAnswerTail appends r's JSON object from after its answer field's
// value, and the newline Encode ends it with.
func appendAnswerTail(b []byte, r *QueryResponse) []byte {
	b = strconv.AppendInt(append(b, `,"count":`...), int64(r.Count), 10)
	b = strconv.AppendBool(append(b, `,"plan_cached":`...), r.PlanCached)
	b = strconv.AppendBool(append(b, `,"result_cached":`...), r.ResultCached)
	b = strconv.AppendBool(append(b, `,"coalesced":`...), r.Coalesced)
	b = appendFloat(append(b, `,"elapsed_ms":`...), r.ElapsedMS)
	if r.Stats != nil {
		b = appendStats(append(b, `,"stats":`...), r.Stats)
	}
	if r.TraceID != "" {
		b = appendString(append(b, `,"trace_id":`...), r.TraceID)
	}
	if r.Explain != nil {
		// The plan profile of an explained request, the one reflective part.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(r.Explain) // a tree of strings and numbers into memory: cannot fail
		b = append(append(b, `,"explain":`...), bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
	}
	return append(b, "}\n"...)
}

// appendHeader appends h's NDJSON line.
func appendHeader(b []byte, h *StreamHeader) []byte {
	b = appendIdentity(b, h.RequestID, h.Database, h.Engine, h.Backend, h.Width, h.Arity)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(h.Count), 10)
	if h.Limit != 0 {
		b = strconv.AppendInt(append(b, `,"limit":`...), int64(h.Limit), 10)
	}
	if h.Offset != 0 {
		b = strconv.AppendInt(append(b, `,"offset":`...), int64(h.Offset), 10)
	}
	b = strconv.AppendBool(append(b, `,"plan_cached":`...), h.PlanCached)
	b = strconv.AppendBool(append(b, `,"result_cached":`...), h.ResultCached)
	return append(b, "}\n"...)
}

// appendTrailer appends t's NDJSON line.
func appendTrailer(b []byte, t *StreamTrailer) []byte {
	b = strconv.AppendBool(append(b, `{"trailer":`...), t.Trailer)
	if t.Count != nil {
		b = strconv.AppendInt(append(b, `,"count":`...), int64(*t.Count), 10)
	}
	if t.Truth != nil {
		b = strconv.AppendBool(append(b, `,"truth":`...), *t.Truth)
	}
	b = strconv.AppendInt(append(b, `,"streamed":`...), t.Streamed, 10)
	b = strconv.AppendInt(append(b, `,"skipped":`...), t.Skipped, 10)
	if t.Stats != nil {
		b = appendStats(append(b, `,"stats":`...), t.Stats)
	}
	if t.Error != "" {
		b = appendString(append(b, `,"error":`...), t.Error)
	}
	b = appendFloat(append(b, `,"elapsed_ms":`...), t.ElapsedMS)
	return append(b, "}\n"...)
}

// appendStats appends st as a JSON object: its first four fields always, the
// others when non-zero (their omitempty).
func appendStats(b []byte, st *eval.Stats) []byte {
	b = strconv.AppendInt(append(b, `{"subformula_evals":`...), st.SubformulaEvals, 10)
	b = strconv.AppendInt(append(b, `,"fix_iterations":`...), st.FixIterations, 10)
	b = strconv.AppendInt(append(b, `,"max_intermediate_arity":`...), st.MaxIntermediateArity, 10)
	b = strconv.AppendInt(append(b, `,"max_intermediate_tuples":`...), st.MaxIntermediateTuples, 10)
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`,"nodes_reused":`, st.NodesReused},
		{`,"delta_tuples":`, st.DeltaTuples},
		{`,"tuples_touched":`, st.TuplesTouched},
		{`,"rep_switches":`, st.RepSwitches},
		{`,"acyclic_fast_path":`, st.AcyclicFastPath},
		{`,"maintained_from_delta":`, st.MaintainedFromDelta},
		{`,"tuples_streamed":`, st.TuplesStreamed},
		{`,"tuples_skipped":`, st.TuplesSkipped},
		{`,"nodes_shared":`, st.NodesShared},
	} {
		if f.v != 0 {
			b = strconv.AppendInt(append(b, f.key...), f.v, 10)
		}
	}
	return append(b, '}')
}

// appendFloat appends f as encoding/json writes a finite float64: the
// shortest form, in exponent form (exponent unpadded) below 1e-6 and from
// 1e21 up.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string: '"' and '\\' escaped, control
// bytes as \b, \f, \n, \r, \t or \u00XX, invalid UTF-8 as \ufffd, U+2028
// and U+2029 escaped, everything else (<, > and & too) as it is.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
