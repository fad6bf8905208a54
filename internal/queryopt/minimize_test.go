package queryopt_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	. "repro/internal/queryopt"
)

func TestMinimizeWidthChain(t *testing.T) {
	db := lineDB(t, 7)
	for m := 1; m <= 5; m++ {
		q := ChainCQ(m)
		direct, err := q.ToFO()
		if err != nil {
			t.Fatal(err)
		}
		minimized, width := minimizeWidth(t, q)
		wantWidth := 3
		if m == 1 {
			wantWidth = 2
		}
		if width > wantWidth {
			t.Fatalf("m=%d: minimized width %d, want ≤ %d (direct FO width %d)",
				m, width, wantWidth, len(direct.Vars()))
		}
		if h := minimized.Head; len(h) != 2 || h[0] != q.Head[0] || h[1] != q.Head[1] {
			t.Fatalf("m=%d: head %v, want the written head %v", m, h, q.Head)
		}
		want, _, err := EvalNaive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eval.BottomUp(minimized, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("m=%d: minimized %v != naive %v\n%s", m, got, want, minimized)
		}
	}
}

func TestMinimizeWidthStar(t *testing.T) {
	// answer(c) ← R(c,x1), R(c,x2), R(c,x3): two variables suffice.
	q := &CQ{
		Head: []logic.Var{"c"},
		Atoms: []Atom{
			{Rel: "R", Vars: []logic.Var{"c", "a"}},
			{Rel: "R", Vars: []logic.Var{"c", "b"}},
			{Rel: "R", Vars: []logic.Var{"c", "d"}},
		},
	}
	minimized, width := minimizeWidth(t, q)
	if width != 2 {
		t.Fatalf("star width = %d, want 2 (%s)", width, minimized)
	}
	b := database.NewBuilder().Relation("R", 2)
	b.Add("R", 0, 1).Add("R", 0, 2).Add("R", 1, 2).Add("R", 2, 0).Add("R", 3, 3)
	db := b.MustBuild()
	want, _, err := EvalNaive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.BottomUp(minimized, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("star: minimized %v != naive %v", got, want)
	}
}

// randAcyclicCQ grows a random acyclic query: each new atom shares a subset
// of one existing atom's variables (guaranteeing GYO-acyclicity) and adds
// fresh ones.
func randAcyclicCQ(r *rand.Rand, atoms int) *CQ {
	fresh := 0
	newVar := func() logic.Var {
		fresh++
		return logic.Var(fmt.Sprintf("v%d", fresh))
	}
	rels := []string{"R", "S2", "T3"}
	arity := map[string]int{"R": 1, "S2": 2, "T3": 3}
	q := &CQ{}
	first := Atom{Rel: rels[r.Intn(3)]}
	for i := 0; i < arity[first.Rel]; i++ {
		first.Vars = append(first.Vars, newVar())
	}
	q.Atoms = append(q.Atoms, first)
	for len(q.Atoms) < atoms {
		base := q.Atoms[r.Intn(len(q.Atoms))]
		a := Atom{Rel: rels[r.Intn(3)]}
		for i := 0; i < arity[a.Rel]; i++ {
			if r.Intn(2) == 0 {
				a.Vars = append(a.Vars, base.Vars[r.Intn(len(base.Vars))])
			} else {
				a.Vars = append(a.Vars, newVar())
			}
		}
		q.Atoms = append(q.Atoms, a)
	}
	// Head: a few distinct variables from random atoms.
	seen := map[logic.Var]bool{}
	for tries := 0; tries < 3; tries++ {
		a := q.Atoms[r.Intn(len(q.Atoms))]
		v := a.Vars[r.Intn(len(a.Vars))]
		if !seen[v] {
			seen[v] = true
			q.Head = append(q.Head, v)
		}
	}
	return q
}

func randCQDB(r *rand.Rand, n int) *database.Database {
	b := database.NewBuilder().Relation("R", 1).Relation("S2", 2).Relation("T3", 3)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i < 2*n; i++ {
		b.Add("R", r.Intn(n))
		b.Add("S2", r.Intn(n), r.Intn(n))
		b.Add("T3", r.Intn(n), r.Intn(n), r.Intn(n))
	}
	return b.MustBuild()
}

func TestMinimizeWidthRandomAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		q := randAcyclicCQ(r, 2+r.Intn(4))
		db := randCQDB(r, 3+r.Intn(3))
		minimized, width := minimizeWidth(t, q)
		if fo, _ := q.ToFO(); width > fo.Width() {
			t.Fatalf("minimization increased width: %d > %d for %+v", width, fo.Width(), q)
		}
		want, _, err := EvalNaive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eval.BottomUp(minimized, db)
		if err != nil {
			t.Fatalf("BottomUp(%s): %v", minimized, err)
		}
		if !got.Equal(want) {
			t.Fatalf("minimized query wrong:\nCQ %+v\nrewritten %s\ngot %v want %v",
				q, minimized, got, want)
		}
	}
}

// TestMinimizeWidthReducesIntermediateArity: the formula walker, which reads
// a text by its names, builds the direct form's 6-ary intermediates; the
// compiled engine runs the same text from its scoped form at width 3.
func TestMinimizeWidthReducesIntermediateArity(t *testing.T) {
	db := lineDB(t, 8)
	q := ChainCQ(5) // direct FO width 6
	direct, err := q.ToFO()
	if err != nil {
		t.Fatal(err)
	}
	if _, width := minimizeWidth(t, q); width != 3 {
		t.Fatalf("width = %d", width)
	}
	_, directStats, err := eval.BottomUpStats(direct, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, minStats, err := eval.CompiledStats(direct, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if minStats.MaxIntermediateArity > 3 || directStats.MaxIntermediateArity != 6 {
		t.Fatalf("intermediate arity: compiled %d, walker %d; want at most 3 and 6",
			minStats.MaxIntermediateArity, directStats.MaxIntermediateArity)
	}
}
