package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/parser"
)

// FuzzQueryBody sends arbitrary bytes to POST /query: the decoder, the
// validation ladder and the engines never panic (a contained panic is a 500
// and fails here), a rejection is a 4xx whose message names the field it is
// about, and an accepted body has one answer — sent again with "stream"
// flipped, the NDJSON rows are the JSON response's window and the counts
// agree. The seeds are the /query bodies of the wire golden script; the corpus
// is testdata/fuzz/FuzzQueryBody.
func FuzzQueryBody(f *testing.F) {
	for _, st := range goldenScript {
		if st.path == "/query" {
			f.Add([]byte(st.body))
		}
	}
	rejectionNamesField := regexp.MustCompile(`^(decoding request: |invalid (parallelism|max_width|timeout_ms|limit|offset) -?\d+: ` +
		`|(trace|explain) is not supported with stream: |explain( requires the compiled engine|: query is outside)` +
		`|bvq: unknown engine "|eval: unknown backend "|backend "(dense|sparse)" requires the compiled engine ` +
		`|query width \d+ exceeds bound k=\d+$|parser: |logic: )`)
	f.Fuzz(func(t *testing.T, body []byte) {
		// What the handler will decode: the first JSON value, unknown fields
		// refused. A text wider than 4 variables is not sent — over 5 elements
		// the engines are welcome to it, a shared machine's memory is not.
		var req QueryRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decoded := dec.Decode(&req) == nil
		if q, err := parser.ParseQuery(req.Query); decoded && err == nil && (q.Width() > 4 || len(req.Query) > 512) {
			t.Skip()
		}
		s, err := New(Config{
			Databases:  map[string]*database.Database{"graph": graphDB(t), "chain": chainDB(t)},
			MaxTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		post := func(body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			return rec
		}
		rec := post(body)
		if rec.Code != http.StatusOK {
			var bad ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil || bad.Error == "" {
				t.Fatalf("%q: status %d with body %q: %v", body, rec.Code, rec.Body, err)
			}
			switch rec.Code {
			case http.StatusBadRequest:
				if !rejectionNamesField.MatchString(bad.Error) {
					t.Fatalf("%q: 400 %q names no field", body, bad.Error)
				}
			case http.StatusNotFound:
				if !strings.HasPrefix(bad.Error, "unknown database ") {
					t.Fatalf("%q: 404 %q", body, bad.Error)
				}
			case http.StatusUnprocessableEntity, http.StatusGatewayTimeout: // the engine's own refusal; the deadline
			default:
				t.Fatalf("%q: status %d (%s), want 200, 400, 404, 422 or 504", body, rec.Code, bad.Error)
			}
			return
		}
		if !decoded {
			t.Fatalf("%q: accepted, and does not decode", body)
		}

		// One answer: the same request in the other rendering.
		other := req
		other.Stream, other.Trace, other.Explain = !req.Stream, false, false
		flipped, _ := json.Marshal(other)
		rec2 := post(flipped)
		if rec2.Code == http.StatusGatewayTimeout {
			return
		}
		if rec2.Code != http.StatusOK {
			t.Fatalf("%q: 200, but %d with stream flipped: %s", body, rec2.Code, rec2.Body)
		}
		jsonRec, streamRec := rec, rec2
		if req.Stream {
			jsonRec, streamRec = rec2, rec
		}
		var resp QueryResponse
		if err := json.Unmarshal(jsonRec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%q: JSON body %q: %v", body, jsonRec.Body, err)
		}
		lines := bytes.Split(bytes.TrimSuffix(streamRec.Body.Bytes(), []byte("\n")), []byte("\n"))
		var hdr StreamHeader
		var trailer StreamTrailer
		if len(lines) < 2 || json.Unmarshal(lines[0], &hdr) != nil || json.Unmarshal(lines[len(lines)-1], &trailer) != nil || !trailer.Trailer {
			t.Fatalf("%q: NDJSON body %q has no header or no trailer", body, streamRec.Body)
		}
		if trailer.Error != "" {
			return // the deadline, mid-drain
		}
		rows := [][]int{}
		for _, line := range lines[1 : len(lines)-1] {
			var row []int
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("%q: NDJSON row %q: %v", body, line, err)
			}
			rows = append(rows, row)
		}
		if resp.Arity == 0 {
			// A sentence's JSON answer is its truth; the stream's one empty row says the same.
			if resp.Truth == nil || *resp.Truth != (hdr.Count == 1) || trailer.Truth == nil || *trailer.Truth != *resp.Truth {
				t.Fatalf("%q: JSON truth %v, NDJSON count %d truth %v", body, resp.Truth, hdr.Count, trailer.Truth)
			}
			rows = [][]int{}
		}
		if hdr.Count != resp.Count || trailer.Count == nil || *trailer.Count != resp.Count || !reflect.DeepEqual(rows, resp.Answer) {
			t.Fatalf("%q: JSON count %d rows %v, NDJSON count %d rows %v", body, resp.Count, resp.Answer, hdr.Count, rows)
		}
	})
}
