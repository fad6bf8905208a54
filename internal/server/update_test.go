package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/serve"
)

// chainDB is 1→2→3 with isolated nodes 4, 5 and P = {1} — small enough that
// inserting E(3,4) visibly grows the reachable set.
func chainDB(t testing.TB) *database.Database {
	t.Helper()
	db, err := database.Parse(`
domain = {1, 2, 3, 4, 5}
E/2 = {(1, 2), (2, 3)}
P/1 = {(1)}
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func postUpdate(t testing.TB, ts *serve.Server, db string, req UpdateRequest) (int, UpdateResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := postUpdateRaw(t, ts, db, body)
	var ok UpdateResponse
	var bad ErrorResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	return code, ok, bad
}

func postUpdateRaw(t testing.TB, ts *serve.Server, db string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/db/"+db+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestUpdateBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"chain": chainDB(t)}})

	reach := "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"
	code, q, _ := postQuery(t, ts, QueryRequest{Database: "chain", Query: reach})
	if code != http.StatusOK || fmt.Sprint(q.Answer) != "[[1] [2] [3]]" {
		t.Fatalf("pre-update reach: status %d answer %v", code, q.Answer)
	}

	code, up, _ := postUpdate(t, ts, "chain", UpdateRequest{
		Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{3, 4}}}},
	})
	if code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}
	if up.Version != 1 || up.FromVersion != 0 || up.Inserted != 1 || up.Deleted != 0 || up.Noop {
		t.Fatalf("update response %+v", up)
	}
	if !reflect.DeepEqual(up.Relations, []string{"E"}) {
		t.Fatalf("changed relations %v", up.Relations)
	}

	code, q, _ = postQuery(t, ts, QueryRequest{Database: "chain", Query: reach})
	if code != http.StatusOK || fmt.Sprint(q.Answer) != "[[1] [2] [3] [4]]" {
		t.Fatalf("post-update reach: status %d answer %v", code, q.Answer)
	}

	// Re-inserting a present tuple and deleting an absent one is an
	// effective no-op: no version bump, same fingerprint.
	code, noop, _ := postUpdate(t, ts, "chain", UpdateRequest{
		Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{3, 4}}, Delete: [][]int{{5, 5}}}},
	})
	if code != http.StatusOK || !noop.Noop || noop.Version != 1 || noop.Fingerprint != up.Fingerprint {
		t.Fatalf("noop update: status %d resp %+v", code, noop)
	}

	st := getStats(t, ts)
	if st.Churn.Updates != 1 {
		t.Fatalf("churn stats %+v", st.Churn)
	}
	if got := st.Databases["chain"].Version; got != 1 {
		t.Fatalf("database version %d", got)
	}
}

func TestUpdateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	v7 := uint64(7)
	cases := []struct {
		name string
		db   string
		req  any // an UpdateRequest, or a raw body bvqd's schema does not have
		code int
		want string
	}{
		{"unknown database", "nosuch",
			UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{10, 20}}}}},
			http.StatusNotFound, `unknown database "nosuch"`},
		{"empty batch", "graph", UpdateRequest{},
			http.StatusBadRequest, "updates: must contain at least one entry"},
		{"missing relation name", "graph",
			UpdateRequest{Updates: []UpdateEntry{{Insert: [][]int{{10, 20}}}}},
			http.StatusBadRequest, "updates[0].relation: missing relation name"},
		{"unknown relation", "graph",
			UpdateRequest{Updates: []UpdateEntry{{Relation: "Q", Insert: [][]int{{10}}}}},
			http.StatusBadRequest, `updates[0].relation: unknown relation "Q"`},
		{"insert arity", "graph",
			UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{10, 20}, {10}}}}},
			http.StatusBadRequest, `updates[0].insert[1]: relation "E" has arity 2, got 1 components`},
		{"delete arity", "graph",
			UpdateRequest{Updates: []UpdateEntry{{Relation: "P", Delete: [][]int{{10, 20}}}}},
			http.StatusBadRequest, `updates[0].delete[0]: relation "P" has arity 1, got 2 components`},
		{"out-of-domain value", "graph",
			UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{10, 99}}}}},
			http.StatusBadRequest, "updates[0].insert[0]: value 99 is not in the domain"},
		{"second entry named", "graph",
			UpdateRequest{Updates: []UpdateEntry{
				{Relation: "E", Insert: [][]int{{10, 20}}},
				{Relation: "P", Delete: [][]int{{99}}},
			}},
			http.StatusBadRequest, "updates[1].delete[0]: value 99 is not in the domain"},
		{"index out of range", "graph", // an index-mode body: indices is not a field
			json.RawMessage(`{"updates":[{"relation":"E","insert":[[0,4]]}],"indices":true}`),
			http.StatusBadRequest, `unknown field "indices"`},
		{"base_version mismatch", "graph",
			UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{40, 10}}}}, BaseVersion: &v7},
			http.StatusConflict, "base_version 7 does not match current version 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			code, raw := postUpdateRaw(t, ts, tc.db, body)
			var bad ErrorResponse
			if err := json.Unmarshal(raw, &bad); err != nil {
				t.Fatalf("decoding error body %q: %v", raw, err)
			}
			if code != tc.code {
				t.Fatalf("status %d, want %d (error %q)", code, tc.code, bad.Error)
			}
			if !strings.Contains(bad.Error, tc.want) {
				t.Fatalf("error %q does not name the field: want %q", bad.Error, tc.want)
			}
		})
	}

	// A rejected update must not have mutated anything.
	if st := getStats(t, ts); st.Churn.Updates != 0 || st.Databases["graph"].Version != 0 {
		t.Fatalf("failed updates changed state: %+v", st.Churn)
	}

	t.Run("unknown JSON field", func(t *testing.T) {
		code, raw := postUpdateRaw(t, ts, "graph", []byte(`{"updates":[],"bogus":1}`))
		if code != http.StatusBadRequest {
			t.Fatalf("status %d body %s", code, raw)
		}
	})
	t.Run("malformed JSON", func(t *testing.T) {
		code, _ := postUpdateRaw(t, ts, "graph", []byte(`{"updates":`))
		if code != http.StatusBadRequest {
			t.Fatalf("status %d", code)
		}
	})

	// base_version match succeeds.
	v0 := uint64(0)
	code, up, bad := postUpdate(t, ts, "graph", UpdateRequest{
		Updates:     []UpdateEntry{{Relation: "E", Insert: [][]int{{40, 10}}}},
		BaseVersion: &v0,
	})
	if code != http.StatusOK || up.Version != 1 {
		t.Fatalf("conditional update: status %d resp %+v err %q", code, up, bad.Error)
	}
}

// TestUpdateCacheChurn exercises the three outcomes of the first read after
// one update: a result whose footprint misses the delta is a hit under its
// unchanged key, a result with maintenance state is maintained by the read
// (and visibly reflects the delta), and a result of a plan with no seedable
// fixpoint on a touched footprint is evaluated fresh. The plan cache must
// survive all of it.
func TestUpdateCacheChurn(t *testing.T) {
	_, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"chain": chainDB(t)}})

	reach := "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"
	pOnly := "(x). P(x)"
	hop := "(x). exists y. E(x, y)"

	mustQuery := func(query string) QueryResponse {
		t.Helper()
		code, q, bad := postQuery(t, ts, QueryRequest{Database: "chain", Query: query})
		if code != http.StatusOK {
			t.Fatalf("query %q: status %d err %q", query, code, bad.Error)
		}
		return q
	}
	mustQuery(reach) // maintainable: a seedable fixpoint + captured state
	mustQuery(pOnly) // footprint {P}: disjoint from an E-only delta
	mustQuery(hop)   // overlapping footprint, no fixpoint to seed: invalidated

	code, _, _ := postUpdate(t, ts, "chain", UpdateRequest{
		Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{3, 4}}}},
	})
	if code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}

	// The first read maintains the entry, reflects the inserted edge and
	// reports the maintenance run's statistics; the next one is a hit.
	q := mustQuery(reach)
	if q.ResultCached {
		t.Fatalf("reach served from cache before any read of the new content: %+v", q)
	}
	if fmt.Sprint(q.Answer) != "[[1] [2] [3] [4]]" {
		t.Fatalf("maintained reach answer %v", q.Answer)
	}
	if q.Stats == nil || q.Stats.MaintainedFromDelta != 1 {
		t.Fatalf("maintained reach stats %+v", q.Stats)
	}
	if q := mustQuery(reach); !q.ResultCached || q.Stats == nil || q.Stats.MaintainedFromDelta != 1 {
		t.Fatalf("the maintained answer was not cached: %+v", q)
	}

	// The P entry's key is unchanged, so it is a hit; the hop entry has no
	// state to resume from and re-evaluates, but still hits the plan cache
	// (plans are keyed by text, not snapshot).
	if q := mustQuery(pOnly); !q.ResultCached {
		t.Fatalf("carried P query missed the cache: %+v", q)
	}
	q = mustQuery(hop)
	if q.ResultCached || !q.PlanCached {
		t.Fatalf("invalidated hop entry: result_cached=%v plan_cached=%v", q.ResultCached, q.PlanCached)
	}

	// A delete touches the reach plan's positive E occurrence: delta polarity
	// forbids maintenance, so the read evaluates fresh and sees the shrunken
	// answer.
	code, up, _ := postUpdate(t, ts, "chain", UpdateRequest{
		Updates: []UpdateEntry{{Relation: "E", Delete: [][]int{{1, 2}}}},
	})
	if code != http.StatusOK || up.Deleted != 1 {
		t.Fatalf("delete update: status %d resp %+v", code, up)
	}
	q = mustQuery(reach)
	if q.ResultCached || fmt.Sprint(q.Answer) != "[[1]]" || q.Stats == nil || q.Stats.MaintainedFromDelta != 0 {
		t.Fatalf("post-delete reach: cached=%v answer %v stats %+v", q.ResultCached, q.Answer, q.Stats)
	}

	st := getStats(t, ts)
	if st.Churn.Updates != 2 || st.Churn.Maintained != 1 || st.Churn.Invalidated != 2 {
		t.Fatalf("churn stats %+v", st.Churn)
	}
}

// TestReturningContentIsAHit: an update retires no entry. After an insert and
// the delete that undoes it, the content the first read saw is back and so is
// its answer, served without evaluating; after the insert repeated, the
// answer the read after the first insert maintained is served.
func TestReturningContentIsAHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"chain": chainDB(t)}})
	const reach = "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"
	ask := func() QueryResponse {
		t.Helper()
		code, q, bad := postQuery(t, ts, QueryRequest{Database: "chain", Engine: "compiled", Query: reach})
		if code != http.StatusOK {
			t.Fatalf("query: status %d err %q", code, bad.Error)
		}
		return q
	}
	update := func(e UpdateEntry) {
		t.Helper()
		code, up, bad := postUpdate(t, ts, "chain", UpdateRequest{Updates: []UpdateEntry{e}})
		if code != http.StatusOK || up.Noop {
			t.Fatalf("update %+v: status %d noop %v err %q", e, code, up.Noop, bad.Error)
		}
	}
	insert := UpdateEntry{Relation: "E", Insert: [][]int{{3, 4}}}
	if q := ask(); q.ResultCached || fmt.Sprint(q.Answer) != "[[1] [2] [3]]" {
		t.Fatalf("first read: cached=%v answer %v", q.ResultCached, q.Answer)
	}
	update(insert)
	if q := ask(); q.ResultCached || fmt.Sprint(q.Answer) != "[[1] [2] [3] [4]]" || q.Stats == nil || q.Stats.MaintainedFromDelta != 1 {
		t.Fatalf("after the insert: cached=%v answer %v stats %+v, want a maintained miss", q.ResultCached, q.Answer, q.Stats)
	}
	update(UpdateEntry{Relation: "E", Delete: [][]int{{3, 4}}})
	evals := getStats(t, ts).Eval.SubformulaEvals
	if q := ask(); !q.ResultCached || fmt.Sprint(q.Answer) != "[[1] [2] [3]]" {
		t.Fatalf("the content returned: cached=%v answer %v, want a hit on [[1] [2] [3]]", q.ResultCached, q.Answer)
	}
	if got := getStats(t, ts).Eval.SubformulaEvals; got != evals {
		t.Fatalf("a returning content's read evaluated: %d subformula evaluations, then %d", evals, got)
	}
	update(insert)
	if q := ask(); !q.ResultCached || fmt.Sprint(q.Answer) != "[[1] [2] [3] [4]]" {
		t.Fatalf("after the insert again: cached=%v answer %v", q.ResultCached, q.Answer)
	}
	if st := getStats(t, ts).Churn; st.Maintained != 1 || st.Invalidated != 0 {
		t.Fatalf("churn %+v: one maintained read, and nothing else resumed or refused", st)
	}
}

// TestRetainedEntriesAgeOut: the entries left under contents that never
// return are bounded by the LRU alone. Twenty inserts, each to a new content,
// each followed by a read that maintains the answer for it, file an entry
// apiece in a cache of 8; the cache stays at 8, evicts, and never evicts the
// entry read after every update.
func TestRetainedEntriesAgeOut(t *testing.T) {
	s, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"chain": chainDB(t)}, ResultCacheSize: 8})
	const reach = "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"
	ask := func(query string) QueryResponse {
		t.Helper()
		code, q, bad := postQuery(t, ts, QueryRequest{Database: "chain", Engine: "compiled", Query: query})
		if code != http.StatusOK {
			t.Fatalf("query %q: status %d err %q", query, code, bad.Error)
		}
		return q
	}
	ask(reach)
	ask("(x). P(x)")
	updates := 0
	for u := 1; u <= 5 && updates < 20; u++ {
		for v := 1; v <= 5 && updates < 20; v++ {
			if u+1 == v && v <= 3 {
				continue // present in chainDB
			}
			code, _, bad := postUpdate(t, ts, "chain", UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Insert: [][]int{{u, v}}}}})
			if code != http.StatusOK {
				t.Fatalf("insert E(%d, %d): status %d err %q", u, v, code, bad.Error)
			}
			updates++
			if q := ask(reach); q.ResultCached || q.Stats == nil || q.Stats.MaintainedFromDelta != 1 {
				t.Fatalf("after insert %d: cached=%v stats %+v, want a maintained miss", updates, q.ResultCached, q.Stats)
			}
			if q := ask("(x). P(x)"); !q.ResultCached {
				t.Fatalf("after insert %d: the entry read after every update was evicted", updates)
			}
			if n := s.results.Len(); n > 8 {
				t.Fatalf("after insert %d: %d entries in a cache of 8", updates, n)
			}
		}
	}
	if _, _, evictions := s.results.Counters(); evictions == 0 {
		t.Fatalf("%d updates to new contents, %d entries, and no eviction", updates, s.results.Len())
	}
}

// TestUpdateEchoesRequestID: an update keeps the client's X-Request-Id, as
// /query does, so a fanned-out update can be joined across replica logs.
func TestUpdateEchoesRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/db/graph/update",
		strings.NewReader(`{"updates":[{"relation":"E","insert":[[40,10]]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "upstream-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var up UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "upstream-7" || up.RequestID != "upstream-7" {
		t.Fatalf("header %q, body %q: want the client's upstream-7", got, up.RequestID)
	}
}

// TestUpdateCarriesPlanlessAnswer: an answer with no maintenance state (its
// plan has no fixpoint to seed) rides out an update to a relation it does not
// read and is re-evaluated after one to a relation it does: a miss with no
// state to resume from (no_plan).
func TestUpdateCarriesPlanlessAnswer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const cycle = "(). exists x. exists y. E(x, y) & E(y, x)"
	ask := func() QueryResponse {
		t.Helper()
		code, q, bad := postQuery(t, ts, QueryRequest{Database: "graph", Query: cycle})
		if code != http.StatusOK {
			t.Fatalf("query: status %d err %q", code, bad.Error)
		}
		return q
	}
	ask()
	for _, tc := range []struct {
		rel         string
		row         []int
		invalidated int64
	}{{"P", []int{40}, 0}, {"E", []int{40, 10}, 1}} {
		code, _, bad := postUpdate(t, ts, "graph", UpdateRequest{Updates: []UpdateEntry{{Relation: tc.rel, Insert: [][]int{tc.row}}}})
		if code != http.StatusOK {
			t.Fatalf("update of %s: status %d (%s)", tc.rel, code, bad.Error)
		}
		if q := ask(); q.ResultCached != (tc.rel == "P") {
			t.Fatalf("after the update of %s: result_cached %v", tc.rel, q.ResultCached)
		}
		if got := getStats(t, ts).Churn.Invalidated; got != tc.invalidated {
			t.Fatalf("after the update of %s: %d invalidated, want %d", tc.rel, got, tc.invalidated)
		}
	}
}

// TestNodeStoreOutlivesUpdates: an update walks no node-store entry. The
// values of the content an update and its inverse restore are hits again; a
// stream of updates whose content never returns leaves its values to the byte
// budget, which evicts them, and the P value read between the updates
// survives them all.
func TestNodeStoreOutlivesUpdates(t *testing.T) {
	s, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"chain": chainDB(t)}, ResultCacheSize: -1})
	const budget = 4 << 10
	s.nodes = eval.NewNodeStore(budget) // before the first request: no run has read the default one
	ask := func() int64 {
		t.Helper()
		code, q, bad := postQuery(t, ts, QueryRequest{Database: "chain", Engine: "compiled", Backend: "dense",
			Query: "(x, y). P(x) & (exists z. (E(x, z) & E(z, y)))"})
		if code != http.StatusOK || q.Stats == nil {
			t.Fatalf("query: status %d err %q", code, bad.Error)
		}
		return q.Stats.NodesShared
	}
	update := func(e UpdateEntry) {
		t.Helper()
		before := getStats(t, ts).NodeCache.Entries
		if code, _, bad := postUpdate(t, ts, "chain", UpdateRequest{Updates: []UpdateEntry{e}}); code != http.StatusOK {
			t.Fatalf("update: status %d err %q", code, bad.Error)
		}
		if after := getStats(t, ts).NodeCache.Entries; after != before {
			t.Fatalf("an update moved the node store from %d entries to %d", before, after)
		}
	}
	ask()
	ask()
	all := ask()
	update(UpdateEntry{Relation: "E", Insert: [][]int{{3, 4}}})
	update(UpdateEntry{Relation: "E", Delete: [][]int{{3, 4}}})
	if got := ask(); got != all || all == 0 {
		t.Fatalf("after an update and its inverse the run shared %d nodes, want all %d", got, all)
	}
	for u := 1; u <= 5; u++ {
		for v := 1; v <= 5; v++ {
			if u == v || u+1 == v {
				continue // present, or a loop
			}
			update(UpdateEntry{Relation: "E", Insert: [][]int{{u, v}}})
			if got := ask(); got < 1 {
				t.Fatalf("E grew by (%d, %d): the P value did not survive", u, v)
			}
			ask() // the E side's second offer: admitted
			if st := getStats(t, ts).NodeCache; st.Bytes > budget {
				t.Fatalf("%d bytes held, budget %d", st.Bytes, budget)
			}
		}
	}
	if st := getStats(t, ts).NodeCache; st.Evictions == 0 {
		t.Fatalf("the retired values never filled the store: %+v", st)
	}
}

// TestUpdateSnapshotIsolation hammers one database with edge toggles while
// readers evaluate concurrently. Every response must be one of the two
// consistent answers — a torn read (an evaluation seeing half an update)
// would produce something else. Run under -race this also proves the
// snapshot handoff is properly synchronized.
func TestUpdateSnapshotIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"chain": chainDB(t)}})

	// twoHop without E(3,4): {(1,3)}; with it: {(1,3),(2,4)}.
	const without = "[[1 3]]"
	const with = "[[1 3] [2 4]]"

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				e := UpdateEntry{Relation: "E"}
				if (i+seed)%2 == 0 {
					e.Insert = [][]int{{3, 4}}
				} else {
					e.Delete = [][]int{{3, 4}}
				}
				code, _, bad := postUpdate(t, ts, "chain", UpdateRequest{Updates: []UpdateEntry{e}})
				if code != http.StatusOK {
					errc <- fmt.Errorf("update: status %d err %q", code, bad.Error)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				code, q, bad := postQuery(t, ts, QueryRequest{
					Database: "chain", Query: twoHop, Engine: "compiled",
					NoCache: r%2 == 0, // half the readers bypass the cache
				})
				if code != http.StatusOK {
					errc <- fmt.Errorf("query: status %d err %q", code, bad.Error)
					return
				}
				if got := fmt.Sprint(q.Answer); got != without && got != with {
					errc <- fmt.Errorf("torn answer %v", q.Answer)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// churnDB is churn-direct's shape on 64 nodes: E and F are four 16-node paths
// each, and S0…S15 one source node apiece.
func churnDB(tb testing.TB) *database.Database {
	tb.Helper()
	var src strings.Builder
	src.WriteString("domain = {0")
	for v := 1; v < 64; v++ {
		fmt.Fprintf(&src, ", %d", v)
	}
	src.WriteString("}\n")
	for _, rel := range []string{"E", "F"} {
		fmt.Fprintf(&src, "%s/2 = {", rel)
		for v := 0; v < 64; v++ {
			if v%16 != 15 {
				fmt.Fprintf(&src, "(%d, %d), ", v, v+1)
			}
		}
		src.WriteString("}\n")
	}
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&src, "S%d/1 = {(%d)}\n", i, 4*i)
	}
	db, err := database.Parse(strings.ReplaceAll(src.String(), ", }", "}"))
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// churnReach is reachability from S<i> along rel.
func churnReach(i int, rel string) string {
	return fmt.Sprintf("(u). [lfp R(x). S%d(x) | (exists z. (%s(z, x) & (exists x. (x = z & R(x)))))](u)", i, rel)
}

// churnEdge is edge k of churnDB's pool: from inside one path to the head of
// the next.
func churnEdge(k int) [][]int {
	u := 4*k + 3
	return [][]int{{u, (u/16 + 1) % 4 * 16}}
}

// TestUpdateDoesNoCacheWork: an update reads, writes and evaluates nothing of
// the result cache. The first read of each text after it maintains the cached
// fixpoint, and the second is a hit.
func TestUpdateDoesNoCacheWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"g": churnDB(t)}})
	read := func(i int) QueryResponse {
		t.Helper()
		code, q, bad := postQuery(t, ts, QueryRequest{Database: "g", Engine: "compiled", Query: churnReach(i, "E")})
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d err %q", i, code, bad.Error)
		}
		return q
	}
	for i := 0; i < 16; i++ {
		read(i)
	}
	type cacheState struct {
		size                    int
		hits, misses, evictions int64
		fixIterations           int64
	}
	state := func() cacheState {
		h, m, e := s.results.Counters()
		return cacheState{s.results.Len(), h, m, e, s.metrics.fixIterations.Value()}
	}
	before := state()
	if code, _, bad := postUpdate(t, ts, "g", UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Insert: churnEdge(0)}}}); code != http.StatusOK {
		t.Fatalf("update: status %d err %q", code, bad.Error)
	}
	if after := state(); after != before {
		t.Fatalf("the update moved the result cache from %+v to %+v", before, after)
	}
	for i := 0; i < 16; i++ {
		if q := read(i); q.ResultCached || q.Stats == nil || q.Stats.MaintainedFromDelta != 1 {
			t.Fatalf("text %d, first read: cached=%v stats %+v, want a maintained miss", i, q.ResultCached, q.Stats)
		}
		if q := read(i); !q.ResultCached {
			t.Fatalf("text %d, second read: not a hit", i)
		}
	}
}

// TestMissMaintainsPastDisjointUpdates: a miss resumes from the entry of the
// content before the update that last touched its footprint, past updates
// that did not. Two updates that both touch it leave no entry for the content
// between them, and the read evaluates fresh. Either way the answer is the
// no_cache one.
func TestMissMaintainsPastDisjointUpdates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		updates    []UpdateEntry
		maintained int64
	}{
		{"E then F", []UpdateEntry{{Relation: "E", Insert: churnEdge(0)}, {Relation: "F", Insert: churnEdge(0)}}, 1},
		{"E twice", []UpdateEntry{{Relation: "E", Insert: churnEdge(0)}, {Relation: "E", Insert: churnEdge(4)}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"g": churnDB(t)}})
			read := func(noCache bool) QueryResponse {
				t.Helper()
				code, q, bad := postQuery(t, ts, QueryRequest{Database: "g", Engine: "compiled", Query: churnReach(0, "E"), NoCache: noCache})
				if code != http.StatusOK || q.Stats == nil {
					t.Fatalf("query: status %d err %q", code, bad.Error)
				}
				return q
			}
			read(false)
			for _, e := range tc.updates {
				if code, _, bad := postUpdate(t, ts, "g", UpdateRequest{Updates: []UpdateEntry{e}}); code != http.StatusOK {
					t.Fatalf("update %+v: status %d err %q", e, code, bad.Error)
				}
			}
			got, want := read(false), read(true)
			if got.ResultCached || got.Stats.MaintainedFromDelta != tc.maintained || s.metrics.maintained.Value() != tc.maintained {
				t.Fatalf("cached=%v maintained_from_delta=%d, want a miss with %d", got.ResultCached, got.Stats.MaintainedFromDelta, tc.maintained)
			}
			if !reflect.DeepEqual(got.Answer, want.Answer) || len(got.Answer) <= 16 {
				t.Fatalf("answer %v, no_cache %v", got.Answer, want.Answer)
			}
		})
	}
}

// BenchmarkUpdate is one insert/delete pair of churn-direct's writes through
// the handler against a cache shaped like its steady state: 16 reachability
// texts over E, each cached under the base content and under the 16 contents
// one inserted edge gives it, and 16 texts over F — 288 entries. An update
// reads none of them: the cost is the handler, Apply and the chain.
func BenchmarkUpdate(b *testing.B) {
	s, err := New(Config{Databases: map[string]*database.Database{"g": churnDB(b)}})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	post := func(path string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
	}
	read := func(rel string) {
		for i := 0; i < 16; i++ {
			body, _ := json.Marshal(QueryRequest{Database: "g", Engine: "compiled", Query: churnReach(i, rel)})
			post("/query", body)
		}
	}
	read("E")
	read("F")
	var pairs [16][2][]byte
	for k := range pairs {
		pairs[k][0], _ = json.Marshal(UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Insert: churnEdge(k)}}})
		pairs[k][1], _ = json.Marshal(UpdateRequest{Updates: []UpdateEntry{{Relation: "E", Delete: churnEdge(k)}}})
		post("/db/g/update", pairs[k][0])
		read("E")
		post("/db/g/update", pairs[k][1])
	}
	if n := s.results.Len(); n != 16*17+16 {
		b.Fatalf("%d entries cached, want %d", n, 16*17+16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair := &pairs[i%len(pairs)]
		post("/db/g/update", pair[0])
		post("/db/g/update", pair[1])
	}
}
