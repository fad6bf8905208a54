package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/relation"
)

// FuzzUpdateBody sends arbitrary bytes to /db/graph/update: the decoder and
// convertUpdates never panic, a rejection is a 400 (409 for base_version)
// whose message names what was wrong with which field, and an accepted body
// leaves the served snapshot where database.Apply takes a model of it, with
// the response's counts being that delta's. The seeds are update_test.go's
// request bodies; the corpus is testdata/fuzz/FuzzUpdateBody.
func FuzzUpdateBody(f *testing.F) {
	rejectionNamesField := regexp.MustCompile(`^(decoding request|updates|updates\[\d+\]\.(relation|insert\[\d+\]|delete\[\d+\])): `)
	f.Fuzz(func(t *testing.T, body []byte) {
		model := graphDB(t)
		s, err := New(Config{Databases: map[string]*database.Database{"graph": model}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/db/graph/update", bytes.NewReader(body)))
		served := s.dbs["graph"].snap.Load()

		if rec.Code != http.StatusOK {
			var bad ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil {
				t.Fatalf("status %d with body %q: %v", rec.Code, rec.Body, err)
			}
			named := rejectionNamesField.MatchString(bad.Error)
			if rec.Code == http.StatusConflict {
				named = strings.HasPrefix(bad.Error, "base_version ")
			} else if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q: status %d, want 200, 400 or 409: %s", body, rec.Code, bad.Error)
			}
			if !named {
				t.Fatalf("%q: status %d: %q names no field", body, rec.Code, bad.Error)
			}
			if served != model {
				t.Fatalf("%q: rejected with %d and applied all the same", body, rec.Code)
			}
			return
		}

		// Accepted: decode as the handler does (the first JSON value, unknown
		// fields refused) and apply to the model.
		var req UpdateRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("%q: accepted, and does not decode: %v", body, err)
		}
		var ups []database.Update
		for _, e := range req.Updates {
			conv := func(rows [][]int) (out []relation.Tuple) {
				for _, row := range rows {
					out = append(out, relation.Tuple(slices.Clone(row)))
				}
				return out
			}
			ups = append(ups, database.Update{Relation: e.Relation, Insert: conv(e.Insert), Delete: conv(e.Delete)})
		}
		want, delta, err := model.Apply(ups)
		if err != nil {
			t.Fatalf("%q: accepted, and database.Apply refuses it: %v", body, err)
		}
		var up UpdateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
			t.Fatal(err)
		}
		ins, del := delta.Counts()
		if served.String() != want.String() || served.Version() != want.Version() || served.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%q: served\n%s\nmodel\n%s", body, served, want)
		}
		if up.Inserted != ins || up.Deleted != del || up.Noop != delta.Empty() || up.Version != want.Version() ||
			!reflect.DeepEqual(up.Relations, delta.Relations()) {
			t.Fatalf("%q: response %+v, delta %+v", body, up, delta)
		}
	})
}
