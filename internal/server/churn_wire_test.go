package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"repro/internal/database"
)

// TestChurnWireDifferential drives seeded random updates and queries through
// the handler and holds the result cache to the one rule it keys by: a key
// names the content the query read. Three databases are served — a and b of
// equal domain size and equal R, c with a's tuples over a larger domain — and
// updates toggle tuples of a small pool, so earlier contents keep coming back.
// After every update each cached answer equals the no_cache answer of the same
// snapshot, whether the read hits, maintains the previous content's entry or
// evaluates fresh, and on c (which shares with nobody) an entry the delta
// missed is still served.
func TestChurnWireDifferential(t *testing.T) {
	texts := []struct {
		text string
		rels []string
	}{
		{"(x, y). R(x, y)", []string{"R"}},
		{"(x, y). exists z. R(x, z) & R(z, y)", []string{"R"}},
		{"(x). T(x)", []string{"T"}},
		{"(x, y). x = y", nil},
		{"(x, y). R(x, y) & !S(x, y)", []string{"R", "S"}},
		{"(x). forall y. (R(x, y) -> S(x, y))", []string{"R", "S"}},
		{"(x). (exists y. S(x, y)) | T(x)", []string{"S", "T"}},
		{"(x, y). [lfp C(x, y). R(x, y) | exists z. (R(x, z) & C(z, y))](x, y)", []string{"R"}},
		{"(u). [lfp A(x). T(x) | (exists z. S(z, x) & (exists x. x = z & A(x)))](u)", []string{"S", "T"}},
		{"(u). [lfp A(x). (exists y. S(x, y)) | (exists z. R(z, x) & !T(x) & (exists x. x = z & A(x)))](u)", []string{"R", "S", "T"}},
		{"(x). [gfp G(x). exists y. (R(x, y) & (exists x. x = y & G(x)))](x)", []string{"R"}},
		{"(x). [pfp Q(x). T(x) | exists y. (S(y, x) & (exists x. x = y & Q(x)))](x)", []string{"S", "T"}},
	}
	pool := map[string][][]int{
		"R": {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 1}},
		"S": {{0, 2}, {2, 4}, {1, 3}, {3, 1}, {4, 4}},
		"T": {{0}, {2}, {4}},
	}
	relNames := []string{"R", "S", "T"}
	sources := map[string]string{
		"a": "domain = {0, 1, 2, 3, 4}\nR/2 = {(0, 1), (1, 2), (2, 3)}\nS/2 = {(0, 2), (2, 4)}\nT/1 = {(0)}\n",
		"b": "domain = {0, 1, 2, 3, 4}\nR/2 = {(0, 1), (1, 2), (2, 3)}\nS/2 = {(1, 3)}\nT/1 = {(4)}\n",
		"c": "domain = {0, 1, 2, 3, 4, 5}\nR/2 = {(0, 1), (1, 2), (2, 3)}\nS/2 = {(0, 2), (2, 4)}\nT/1 = {(0)}\n",
	}
	names := []string{"a", "b", "c"}
	dbs := map[string]*database.Database{}
	present := map[string]map[string]bool{} // database → "rel tuple" → held
	for name, src := range sources {
		db, err := database.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		dbs[name], present[name] = db, map[string]bool{}
		for _, rel := range relNames {
			for _, tp := range pool[rel] {
				r, _ := db.RelValues(rel)
				present[name][fmt.Sprint(rel, tp)] = r.Contains(tp)
			}
		}
	}
	s, err := New(Config{Databases: dbs})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()
	post := func(path string, in, out any) {
		t.Helper()
		body, _ := json.Marshal(in)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
	// ask sends the cached request, then the no_cache one, and compares.
	ask := func(db string, text int) QueryResponse {
		t.Helper()
		var got, want QueryResponse
		req := QueryRequest{Database: db, Query: texts[text].text}
		post("/query", req, &got)
		req.NoCache = true
		post("/query", req, &want)
		if !reflect.DeepEqual(got.Answer, want.Answer) || got.Count != want.Count {
			t.Fatalf("%s %q cached=%v:\n served     %v\n recomputed %v", db, req.Query, got.ResultCached, got.Answer, want.Answer)
		}
		return got
	}

	// Before any update: a stores everything; b, whose R is a's, is served
	// a's answers for exactly the texts that read nothing else; c has a's
	// tuples and another domain size, and is served nothing.
	for _, db := range names {
		for i, tx := range texts {
			shared := db == "b" && (len(tx.rels) == 0 || slices.Equal(tx.rels, []string{"R"}))
			if q := ask(db, i); q.ResultCached != shared {
				t.Fatalf("%s %q: result_cached=%v, want %v", db, tx.text, q.ResultCached, shared)
			}
		}
	}

	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 200; step++ {
		db := names[rng.Intn(len(names))]
		// Toggle one to three pool tuples of one or two relations.
		entries := map[string]*UpdateEntry{}
		for range 1 + rng.Intn(3) {
			rel := relNames[rng.Intn(len(relNames))]
			if len(entries) == 2 && entries[rel] == nil {
				continue
			}
			if entries[rel] == nil {
				entries[rel] = &UpdateEntry{Relation: rel}
			}
			tp := pool[rel][rng.Intn(len(pool[rel]))]
			id := fmt.Sprint(rel, tp)
			if slices.ContainsFunc(append(entries[rel].Insert, entries[rel].Delete...), func(o []int) bool { return slices.Equal(o, tp) }) {
				continue
			}
			if present[db][id] {
				entries[rel].Delete = append(entries[rel].Delete, tp)
			} else {
				entries[rel].Insert = append(entries[rel].Insert, tp)
			}
			present[db][id] = !present[db][id]
		}
		var req UpdateRequest
		for _, rel := range relNames {
			if e := entries[rel]; e != nil {
				req.Updates = append(req.Updates, *e)
			}
		}
		var up UpdateResponse
		post("/db/"+db+"/update", req, &up)
		if up.Noop {
			t.Fatalf("step %d: %+v changed nothing", step, req)
		}

		for i, tx := range texts {
			q := ask(db, i)
			missed := !slices.ContainsFunc(tx.rels, func(r string) bool { return slices.Contains(up.Relations, r) })
			if db == "c" && missed && !q.ResultCached {
				t.Fatalf("step %d: c's %q reads %v, the update changed %v, and the entry is gone", step, tx.text, tx.rels, up.Relations)
			}
		}
		for _, other := range names {
			if other != db {
				ask(other, rng.Intn(len(texts)))
			}
		}
	}
	if s.metrics.maintained.Value() == 0 {
		t.Error("no read maintained an entry")
	}
	for _, reason := range []string{"no_plan", "delta_polarity"} {
		if s.metrics.invalidations.With(reason).Value() == 0 {
			t.Errorf("no invalidation for %s", reason)
		}
	}
	if _, _, evictions := s.results.Counters(); evictions != 0 {
		t.Fatalf("%d evictions: the cache is too small for the entry counts above to mean anything", evictions)
	}
}
