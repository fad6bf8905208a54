package cache

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestResultCacheEach: the update path's walk sees exactly the live entries
// its keep accepts, may store from inside it, and is invisible to the counters
// and to the eviction order — a triage is not a read; neither is Has.
func TestResultCacheEach(t *testing.T) {
	c := NewResultCache(4)
	c.Put("a1", Result{DB: "a"})
	c.Put("b1", Result{DB: "b"})
	c.Put("a2", Result{DB: "a"})
	of := func(db string) func(string, *Result) bool {
		return func(_ string, r *Result) bool { return r.DB == db }
	}
	var seen []string
	c.Each(of("a"), func(key string, r Result) {
		seen = append(seen, key)
		if r.DB != "a" {
			t.Errorf("%s: entry of database %q in a's walk", key, r.DB)
		}
		if key == "a2" { // the lock is not held: the walk may store
			c.Put("a3", r)
		}
	})
	if want := []string{"a2", "a1"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("walk saw %v, want %v (most recent first, the entry stored meanwhile not among them)", seen, want)
	}
	if !c.Has("a1") || c.Has("a4") {
		t.Fatal("Has must report exactly the stored keys")
	}
	if h, m, e := c.Counters(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("the walk or Has counted: hits %d misses %d evictions %d", h, m, e)
	}
	// a1 is the oldest entry and neither the walk nor Has may have moved it:
	// the next Put evicts it, not b1.
	c.Put("b2", Result{DB: "b"})
	if _, ok := c.Get("a1"); ok {
		t.Fatal("the walk or Has refreshed a1's recency")
	}
	if _, ok := c.Get("b1"); !ok {
		t.Fatal("b1 was evicted in a1's place")
	}
	c.Each(of("nobody"), func(string, Result) { t.Fatal("walk over a database that stored nothing") })
	NewResultCache(0).Each(of("a"), func(string, Result) { t.Fatal("walk over a disabled cache") })
	if NewResultCache(0).Has("a1") {
		t.Fatal("a disabled cache has nothing")
	}
}

// TestWithContent: replacing the content component gives the key ResultKey
// mints for that content, and comparing a key with itself re-minted, or its
// head with ContentPrefix, says whether it names that content.
func TestWithContent(t *testing.T) {
	opts := &eval.Options{MaxWidth: 3, Backend: eval.BackendSparse}
	const text = "(x, y). E(x, y) | x = y"
	old := ResultKey(0xdeadbeef, "compiled", opts, text)
	for _, content := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		if got, want := WithContent(old, content), ResultKey(content, "compiled", opts, text); got != want {
			t.Errorf("WithContent(%q, %#x) = %q, want %q", old, content, got, want)
		}
		if !strings.HasPrefix(WithContent(old, content), ContentPrefix(content)) || strings.HasPrefix(WithContent(old, content^1), ContentPrefix(content)) {
			t.Errorf("ContentPrefix(%#x) does not say which content a key names", content)
		}
	}
	if WithContent(old, 0xdeadbeef) != old || WithContent(old, 0xdeadbeee) == old {
		t.Fatal("a key must equal itself re-minted for its own content and no other")
	}
}

func TestResultOverlaps(t *testing.T) {
	for _, tc := range []struct {
		footprint, changed []string
		want               bool
	}{
		{nil, []string{"E"}, false}, // reads nothing: nothing overlaps
		{[]string{}, []string{"E"}, false},
		{[]string{"E", "P"}, []string{"F"}, false},
		{[]string{"E", "P"}, []string{"A", "P"}, true},
		{[]string{"P"}, nil, false},
	} {
		if got := (&Result{Footprint: tc.footprint}).Overlaps(tc.changed); got != tc.want {
			t.Errorf("footprint %v, changed %v: overlaps = %v, want %v", tc.footprint, tc.changed, got, tc.want)
		}
	}
}

// TestPlanFootprint: a query's footprint is the free relations it names,
// compiled or not: a second-order quantified one is not among them, and it is
// the compiled plan's own footprint where there is one.
func TestPlanFootprint(t *testing.T) {
	pc := NewPlanCache(8)
	for text, want := range map[string][]string{
		"(x, y). exists z. E(x, z) & (P(z) | E(z, y))": {"E", "P"},
		"(x, y). x = y": {},
		"(). exists2 C/1. forall x. forall y. E(x, y) -> !(C(x) <-> C(y))": {"E"},
	} {
		p, _, err := pc.Load(text)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Footprint; len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: footprint %v, want %v", text, got, want)
		}
		if p.Prepared != nil && !reflect.DeepEqual(p.Prepared.Maint.Rels, p.Footprint) {
			t.Errorf("%s: plan footprint %v, query footprint %v", text, p.Prepared.Maint.Rels, p.Footprint)
		}
	}
}
