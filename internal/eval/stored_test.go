// Tests of the storage → algebra seam: atoms read the database's stored codes,
// which sparse runs alias and nobody writes, and a relation too wide for a
// code space is still an input.
package eval

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/relation"
)

// TestWideRelationWithoutCodeSpace: 600⁷ exceeds relation.MaxSparseCode, so W
// is stored as the Set it was given as — a supported input, read through
// repeated arguments by both algebras and the oracle alike, and updated by
// Apply under the identity a build of the new content has.
func TestWideRelationWithoutCodeSpace(t *testing.T) {
	const n = 600
	b := database.NewBuilder().Relation("W", 7).Relation("E", 2)
	for i := 0; i < n; i++ {
		b.Domain(i)
		if i%7 == 0 {
			j := (i + 1) % n
			b.Add("W", i, i, i, i, i, i, j).Add("W", i, i, i, i, i, j, i).Add("E", i, j)
		}
	}
	db := b.Add("W", 3, 3, 3, 3, 3, 3, 3).MustBuild()
	if codes, err := db.Codes("W"); err != nil || codes != nil || db.Card("W") != 2*86+1 {
		t.Fatalf("W: codes %v, err %v, card %d: want the Set, 173 tuples", codes, err, db.Card("W"))
	}
	q, err := parser.ParseQuery("(x, y). W(x, x, x, x, x, x, y) & !E(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	agree := func(db *database.Database, count int) {
		t.Helper()
		want, err := Naive(q, db)
		if err != nil || want.Len() != count {
			t.Fatalf("naive: %v, %d tuples, want %d", err, want.Len(), count)
		}
		for _, backend := range []Backend{BackendSparse, BackendDense, BackendAuto} {
			got, _, err := CompiledStats(q, db, &Options{Backend: backend})
			if err != nil || !got.Equal(want) {
				t.Fatalf("%s: %v, %v\nnaive %v", backend, err, got, want)
			}
		}
	}
	agree(db, 1) // (3, 3): every other diagonal tuple of W is an edge

	next, _, err := db.Apply([]database.Update{{Relation: "W",
		Insert: []relation.Tuple{{5, 5, 5, 5, 5, 5, 9}, {3, 3, 3, 3, 3, 3, 3}},
		Delete: []relation.Tuple{{0, 0, 0, 0, 0, 0, 1}, {1, 1, 1, 1, 1, 1, 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := database.Parse(next.String())
	if err != nil {
		t.Fatal(err)
	}
	if next.Card("W") != 173 || next.RelID("W") != rebuilt.RelID("W") || next.RelID("W") == db.RelID("W") {
		t.Fatalf("Apply on W: %d tuples, identity follows content: %v", next.Card("W"), next.RelID("W") == rebuilt.RelID("W"))
	}
	if was, _ := db.Codes("E"); was == nil || !slices.Equal(db.Names(), next.Names()) {
		t.Fatal("E has a code space")
	} else if is, _ := next.Codes("E"); is != was {
		t.Fatal("Apply on W copied E")
	}
	agree(next, 2)
	agree(db, 1)

	// Read through seven distinct arguments there is no space on either route:
	// an error, not a panic.
	all, err := parser.ParseQuery("(a, b, c, d, e, f, g). W(a, b, c, d, e, f, g)")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendSparse, BackendDense, BackendAuto} {
		if _, _, err := CompiledStats(all, db, &Options{Backend: backend}); err == nil {
			t.Fatalf("%s evaluated a 600^7 space", backend)
		}
	}
}

// TestStoredCodesNeverWritten: a sparse atom through ascending arguments is
// the database's own block. Whatever a run does around it — stage loops, a
// delta restart, a hand-off in either direction, a budget overrun rerun dense,
// values frozen into a node store, released blocks poisoned (TestMain) — the
// block holds afterwards what it held before, in the same array; and two runs
// at once on one snapshot only read it (the race detector's to say).
func TestStoredCodesNeverWritten(t *testing.T) {
	type held struct {
		rel   *relation.Sparse
		codes []uint64
	}
	hold := func(dbs ...*database.Database) (out []held) {
		for _, db := range dbs {
			for _, name := range db.Names() {
				rel, err := db.Codes(name)
				if err != nil || rel == nil {
					t.Fatalf("%s: no stored codes (err %v)", name, err)
				}
				if rel.Cap() != rel.Count() {
					t.Fatalf("%s: %d codes stored in a block of %d: a block with room is not safe to alias", name, rel.Count(), rel.Cap())
				}
				h := held{rel: rel}
				rel.ForEachCode(func(c uint64) { h.codes = append(h.codes, c) })
				out = append(out, h)
			}
		}
		return out
	}
	intact := func(what string, hs []held) {
		t.Helper()
		for _, h := range hs {
			var now []uint64
			h.rel.ForEachCode(func(c uint64) { now = append(now, c) })
			if !slices.Equal(now, h.codes) || h.rel.Cap() != len(h.codes) {
				t.Fatalf("%s wrote a stored block: %d codes in %d, were %d", what, len(now), h.rel.Cap(), len(h.codes))
			}
		}
	}
	ctx := context.Background()
	tc, reach := mustCompile(t, tcQuery()), mustCompile(t, reachQuery())

	forest := forestDB(200, 10)
	hs := hold(forest)
	store := NewNodeStore(64 << 20)
	for pass := 0; pass < 3; pass++ { // offered, admitted (frozen: clipped), hit
		if _, st, _, err := EvalPlan(ctx, tc, forest, &Options{Nodes: store}, nil, false); err != nil || st.TuplesTouched == 0 && st.NodesShared == 0 {
			t.Fatalf("tc on the forest, pass %d: %v, %+v: want the sparse route", pass, err, st)
		}
	}
	intact("tc through a node store", hs)

	line := lineDB(16)
	next, delta, err := line.Apply([]database.Update{{Relation: "E", Insert: []relation.Tuple{{15, 3}, {7, 0}}}})
	if err != nil || !CanMaintain(tc, delta) {
		t.Fatalf("apply: %v, maintainable %v", err, CanMaintain(tc, delta))
	}
	hs = hold(line, next)
	for _, backend := range []Backend{BackendSparse, BackendDense} {
		opts := &Options{Backend: backend}
		_, _, state, err := EvalPlan(ctx, tc, line, opts, nil, true)
		if err != nil || state == nil {
			t.Fatalf("%s: capture: %v, state %v", backend, err, state)
		}
		if _, st, _, err := EvalPlan(ctx, tc, next, opts, state, true); err != nil || st.MaintainedFromDelta != 1 {
			t.Fatalf("%s: restart: %v, %+v", backend, err, st)
		}
	}
	intact("a delta restart", hs)

	b := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < 12; i++ {
		b.Domain(i)
		for j := 0; j < 12; j++ {
			if (i+2*j)%7 != 0 {
				b.Add("E", i, j)
			}
		}
	}
	// An edge given twice: the block a build sorts and dedups has room to spare
	// until it is clipped, and a block with room is what freeze would rewrite.
	nearComplete, path := b.Add("E", 0, 1).MustBuild(), lineDB(24)
	hs = hold(nearComplete, path)
	withHandOffScale(0, func() {
		for _, start := range []string{"sparse", "dense"} {
			p, db := tc, nearComplete
			if start == "dense" {
				p, db = reach, path
			}
			if res, err := startOn(t, start, p, db, &Options{}); err != nil || res.stats.RepSwitches != 1 {
				t.Fatalf("started %s: %v, %+v: want one hand-off", start, err, res.stats)
			}
		}
	})
	intact("a hand-off", hs)

	big := forestDB(410, 10)
	hs = hold(big)
	if _, st, _, err := EvalPlan(ctx, tc, big, &Options{sparseBudget: 100}, nil, false); err != nil || st.RepSwitches != 1 {
		t.Fatalf("budget rerun: %v, %+v", err, st)
	}
	intact("a budget overrun rerun dense", hs)

	hs = hold(forest)
	shared := NewNodeStore(64 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				if _, _, _, err := EvalPlan(ctx, tc, forest, &Options{Backend: BackendSparse, Nodes: shared}, nil, pass == 1); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	intact("two runs at once", hs)
}
