package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"repro/internal/eval"
	"repro/internal/querybody"
)

// FuzzQueryRequest holds the /query body scanner to encoding/json: whenever
// querybody.Scan accepts a body, a Decoder with unknown fields disallowed —
// what the handler falls back to — decodes the same QueryRequest without
// error. And the scanner takes what clients send: whatever encoding/json
// decodes, re-encoded by json.Marshal (every string escape a client library
// writes, \u0026 for '&' among them), is accepted and read back the same. The
// seeds are the wire golden script's /query bodies; the corpus,
// testdata/fuzz/FuzzQueryRequest, adds escapes, surrogate pairs, case-folded
// and repeated keys, null, exponents and trailing bytes.
func FuzzQueryRequest(f *testing.F) {
	for _, st := range goldenScript {
		if st.path == "/query" {
			f.Add([]byte(st.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want QueryRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decErr := dec.Decode(&want)
		var got querybody.Request
		if querybody.Scan(body, &got) && (decErr != nil || QueryRequest(got) != want) {
			t.Fatalf("%q: scanned %+v; encoding/json decodes %+v (%v)", body, got, want, decErr)
		}
		if decErr != nil || !utf8.ValidString(want.Database+want.Query+want.Engine+want.Backend) {
			return // invalid UTF-8 is replaced by Marshal, not kept
		}
		plain, _ := json.Marshal(want)
		if !querybody.Scan(plain, &got) || QueryRequest(got) != want {
			t.Fatalf("%q: refused or misread what json.Marshal writes for %+v: %+v", plain, want, got)
		}
	})
}

// FuzzWireAppenders holds the response appenders to encoding/json: the JSON
// envelope around a rendered answer, the stream header and the trailer, with
// and without Stats, are byte for byte what an Encoder with SetEscapeHTML(false)
// writes for the same QueryResponse, StreamHeader and StreamTrailer. The
// strings stand for database names, request IDs and error texts ('"', "<>&",
// control bytes, invalid UTF-8, U+2028); the float is elapsed_ms; statsMask
// picks which Stats fields are non-zero. The corpus is
// testdata/fuzz/FuzzWireAppenders.
func FuzzWireAppenders(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, text string, elapsed float64, n, m int64, statsMask uint16, flags uint8) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			return // encoding/json refuses them; elapsed_ms is a duration
		}
		var stats *eval.Stats
		if flags&1 != 0 {
			fields := make([]int64, 13)
			for i := range fields {
				if statsMask>>i&1 != 0 {
					fields[i] = n + int64(i)*m
				}
			}
			stats = &eval.Stats{
				SubformulaEvals: fields[0], FixIterations: fields[1], MaxIntermediateArity: fields[2],
				MaxIntermediateTuples: fields[3], NodesReused: fields[4], DeltaTuples: fields[5],
				TuplesTouched: fields[6], RepSwitches: fields[7], AcyclicFastPath: fields[8],
				MaintainedFromDelta: fields[9], TuplesStreamed: fields[10], TuplesSkipped: fields[11],
				NodesShared: fields[12],
			}
		}
		truth, count := flags&2 != 0, int(n)
		encode := func(v any) []byte {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		check := func(what string, got, want []byte) {
			if !bytes.Equal(got, want) {
				t.Fatalf("%s:\nappended %q\nencoded  %q", what, got, want)
			}
		}

		resp := QueryResponse{
			RequestID: name, Database: text, Engine: engineCompiled, Width: int(m), Arity: int(n),
			Answer: [][]int{{int(n), int(m)}}, Count: count, PlanCached: flags&4 != 0,
			ResultCached: flags&8 != 0, Coalesced: flags&16 != 0, ElapsedMS: elapsed, Stats: stats,
		}
		if flags&32 != 0 {
			resp.Backend, resp.TraceID, resp.Truth = name, text, &truth
		}
		rows, _ := json.Marshal(resp.Answer)
		check("QueryResponse", appendAnswerTail(append(appendAnswerHead(nil, &resp), rows...), &resp), encode(resp))

		hdr := StreamHeader{
			RequestID: name, Database: text, Engine: engineCompiled, Width: int(m), Arity: int(n),
			Count: count, PlanCached: flags&4 != 0, ResultCached: flags&8 != 0,
		}
		if flags&32 != 0 {
			hdr.Backend, hdr.Limit, hdr.Offset = text, int(m), int(n)
		}
		check("StreamHeader", appendHeader(nil, &hdr), encode(hdr))

		trailer := StreamTrailer{Trailer: true, Streamed: n, Skipped: m, Stats: stats, ElapsedMS: elapsed}
		if flags&32 != 0 {
			trailer.Error = text
		} else {
			trailer.Count, trailer.Truth = &count, &truth
		}
		check("StreamTrailer", appendTrailer(nil, &trailer), encode(trailer))
	})
}
