package server

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/database"
)

// avoidB is reachability from P along E that stops at B-nodes: E occurs
// positively and B negatively, so inserts into E and deletes from B are
// maintainable and the opposite changes shrink the answer.
const avoidB = "(u). [lfp S(x). P(x) | (exists z. E(z, x) & !B(x) & (exists x. x = z & S(x)))](u)"

// straddleV0 is the content the held evaluation of straddle reads.
const straddleV0 = `
domain = {1, 2, 3, 4, 5}
E/2 = {(1, 2), (2, 3), (3, 4)}
P/1 = {(1)}
B/1 = {}
`

// straddle is the three-version interleaving the result cache must survive:
// an evaluation pinned to v0 is held (testHookBeforeEval) while updates u1 and
// u2 land, then finishes and stores its answer — under v0's content, two
// snapshots behind — and a third update u3, one that delta-restart
// maintenance accepts, follows. It returns the server and a check that the
// answer the cache serves (or misses) equals the no_cache answer of the same
// snapshot; afterU2 runs with that check between the held evaluation's end
// and u3.
func straddle(t *testing.T, u1, u2, u3 UpdateEntry, afterU2 func(check func() QueryResponse)) (*Server, func() QueryResponse) {
	t.Helper()
	db, err := database.Parse(straddleV0)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	s, ts := hookedServer(t, Config{Databases: map[string]*database.Database{"g": db}}, func() {
		if armed.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
	})
	ask := func(noCache bool) QueryResponse {
		t.Helper()
		code, q, bad := postQuery(t, ts, QueryRequest{Database: "g", Engine: "compiled", Query: avoidB, NoCache: noCache})
		if code != http.StatusOK {
			t.Fatalf("query: status %d: %s", code, bad.Error)
		}
		return q
	}
	check := func() QueryResponse {
		t.Helper()
		got, want := ask(false), ask(true)
		if !reflect.DeepEqual(got.Answer, want.Answer) {
			t.Fatalf("cached=%v answer %v, recomputed on the same snapshot %v", got.ResultCached, got.Answer, want.Answer)
		}
		return got
	}
	update := func(e UpdateEntry) {
		t.Helper()
		code, up, bad := postUpdate(t, ts, "g", UpdateRequest{Updates: []UpdateEntry{e}})
		if code != http.StatusOK || up.Noop {
			t.Fatalf("update %+v: status %d noop %v: %s", e, code, up.Noop, bad.Error)
		}
	}

	// A failure below must not leave the held request, and with it the test
	// server's Close, waiting.
	letGo := sync.OnceFunc(func() { close(release) })
	t.Cleanup(letGo)
	armed.Store(true)
	held := make(chan QueryResponse, 1)
	go func() {
		_, q, _ := postQuery(t, ts, QueryRequest{Database: "g", Engine: "compiled", Query: avoidB})
		held <- q
	}()
	<-entered // pinned to v0, not evaluated yet
	update(u1)
	update(u2)
	letGo()
	if q := <-held; q.ResultCached || fmt.Sprint(q.Answer) != "[[1] [2] [3] [4]]" {
		t.Fatalf("the held evaluation must answer from its own snapshot v0: cached=%v %v", q.ResultCached, q.Answer)
	}
	if afterU2 != nil {
		afterU2(check)
	}
	update(u3)
	return s, check
}

// TestUpdateStraddlingEvalIsNoBaseline: the straddling entry reads content
// that is two updates old, so the first read after u3 must not restart from
// its state. If it did, the answer filed for v3 would keep nodes that B(3) has
// cut off.
func TestUpdateStraddlingEvalIsNoBaseline(t *testing.T) {
	s, check := straddle(t,
		UpdateEntry{Relation: "B", Insert: [][]int{{3}}},
		UpdateEntry{Relation: "B", Insert: [][]int{{4}}},
		UpdateEntry{Relation: "B", Delete: [][]int{{4}}}, nil)
	v0, err := database.Parse(straddleV0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.results.Peek(resultKey(t, v0, QueryRequest{Database: "g", Engine: "compiled", Query: avoidB})); !ok || s.results.Len() != 1 {
		t.Fatalf("cache holds %d entries: the straddling entry must be still filed under its v0 key, and nothing else", s.results.Len())
	}
	if q := check(); q.ResultCached || fmt.Sprint(q.Answer) != "[[1] [2]]" || q.Stats == nil || q.Stats.MaintainedFromDelta != 0 {
		t.Fatalf("v3: cached=%v answer %v stats %+v, want a fresh [[1] [2]]", q.ResultCached, q.Answer, q.Stats)
	}
	if q := check(); !q.ResultCached {
		t.Fatal("v3's own answer was not cached")
	}
}

// TestUpdateStraddlingEvalSameContentHits: when u2 undoes u1, v2 holds the
// content v0 held, the straddling entry is filed under exactly the key v2
// asks for, and it is a legitimate hit and a legitimate maintenance baseline
// for the first read after u3.
func TestUpdateStraddlingEvalSameContentHits(t *testing.T) {
	_, check := straddle(t,
		UpdateEntry{Relation: "B", Insert: [][]int{{3}}},
		UpdateEntry{Relation: "B", Delete: [][]int{{3}}},
		UpdateEntry{Relation: "E", Insert: [][]int{{4, 5}}},
		func(check func() QueryResponse) {
			if q := check(); !q.ResultCached || fmt.Sprint(q.Answer) != "[[1] [2] [3] [4]]" {
				t.Fatalf("v2 has v0's content: cached=%v answer %v, want a hit on [[1] [2] [3] [4]]", q.ResultCached, q.Answer)
			}
		})
	q := check()
	if q.ResultCached || fmt.Sprint(q.Answer) != "[[1] [2] [3] [4] [5]]" || q.Stats == nil || q.Stats.MaintainedFromDelta != 1 {
		t.Fatalf("v3: cached=%v answer %v stats %+v, want the maintained [[1] [2] [3] [4] [5]]", q.ResultCached, q.Answer, q.Stats)
	}
	if q := check(); !q.ResultCached {
		t.Fatal("v3's maintained answer was not cached")
	}
}

// TestUpdateStraddlingEvalRace is the same interleaving unscripted, for the
// race detector: readers store and maintain results while updates toggle B(3)
// under them, so stores land on either side of every update. After the last update the
// cache may hold answers for both contents; whichever one a request hits must
// be the answer of its own snapshot.
func TestUpdateStraddlingEvalRace(t *testing.T) {
	db, err := database.Parse("domain = {1, 2, 3, 4, 5}\nE/2 = {(1, 2), (2, 3), (3, 4)}\nP/1 = {(1)}\nB/1 = {}\n")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Databases: map[string]*database.Database{"g": db}})
	done := make(chan error, 5)
	for r := 0; r < 4; r++ {
		go func() {
			for i := 0; i < 40; i++ {
				code, q, bad := postQuery(t, ts, QueryRequest{Database: "g", Engine: "compiled", Query: avoidB})
				if got := fmt.Sprint(q.Answer); code != http.StatusOK || got != "[[1] [2] [3] [4]]" && got != "[[1] [2]]" {
					done <- fmt.Errorf("status %d answer %v: %s", code, q.Answer, bad.Error)
					return
				}
			}
			done <- nil
		}()
	}
	go func() {
		for i := 0; i < 40; i++ {
			e := UpdateEntry{Relation: "B", Insert: [][]int{{3}}}
			if i%2 == 1 {
				e = UpdateEntry{Relation: "B", Delete: [][]int{{3}}}
			}
			if code, _, bad := postUpdate(t, ts, "g", UpdateRequest{Updates: []UpdateEntry{e}}); code != http.StatusOK {
				done <- fmt.Errorf("update: status %d: %s", code, bad.Error)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < cap(done); i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// 40 toggles: B is empty again.
	for i := 0; i < 2; i++ {
		if _, q, _ := postQuery(t, ts, QueryRequest{Database: "g", Engine: "compiled", Query: avoidB}); fmt.Sprint(q.Answer) != "[[1] [2] [3] [4]]" {
			t.Fatalf("after the last update: cached=%v answer %v", q.ResultCached, q.Answer)
		}
	}
}
