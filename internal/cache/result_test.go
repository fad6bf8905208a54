package cache

import (
	"reflect"
	"testing"

	"repro/internal/eval"
)

// TestResultCachePeek: a miss peeks at the entry it may resume from, and the
// peek returns exactly what is stored while staying invisible to the counters
// and to the eviction order — a question about the cache is not a read.
func TestResultCachePeek(t *testing.T) {
	c := NewResultCache(3)
	stats := func(evals int64) *eval.Stats { return &eval.Stats{SubformulaEvals: evals} }
	c.Put("a1", Result{Stats: stats(1)})
	c.Put("b1", Result{Stats: stats(2)})
	c.Put("a2", Result{Stats: stats(3)})
	if r, ok := c.Peek("a1"); !ok || r.Stats.SubformulaEvals != 1 {
		t.Fatalf("Peek(a1) = %+v, %v: want the entry stored under a1", r, ok)
	}
	if _, ok := c.Peek("a4"); ok {
		t.Fatal("Peek found a key never stored")
	}
	if h, m, e := c.Counters(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("Peek counted: hits %d misses %d evictions %d", h, m, e)
	}
	// a1 is the oldest entry and Peek may not have moved it: the next Put
	// evicts it, not b1.
	c.Put("b2", Result{})
	if _, ok := c.Get("a1"); ok {
		t.Fatal("Peek refreshed a1's recency")
	}
	if _, ok := c.Get("b1"); !ok {
		t.Fatal("b1 was evicted in a1's place")
	}
	if _, ok := NewResultCache(0).Peek("a1"); ok {
		t.Fatal("a disabled cache has nothing")
	}
}

// TestWithContent: replacing the content component gives the key ResultKey
// mints for that content, and comparing a key with itself re-minted says
// whether it names that content.
func TestWithContent(t *testing.T) {
	opts := &eval.Options{MaxWidth: 3, Backend: eval.BackendSparse}
	const text = "(x, y). E(x, y) | x = y"
	old := ResultKey(0xdeadbeef, "compiled", opts, text)
	for _, content := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		if got, want := WithContent(old, content), ResultKey(content, "compiled", opts, text); got != want {
			t.Errorf("WithContent(%q, %#x) = %q, want %q", old, content, got, want)
		}
	}
	if WithContent(old, 0xdeadbeef) != old || WithContent(old, 0xdeadbeee) == old {
		t.Fatal("a key must equal itself re-minted for its own content and no other")
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
