package queryopt_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	. "repro/internal/queryopt"
	"repro/internal/relation"
)

// randomAcyclicCQ builds an acyclic CQ by construction: each new atom shares
// variables with exactly one already-placed atom (plus fresh variables), so
// the atoms form a join tree. The head is a random nonempty-or-empty subset
// of the occurring variables.
func randomAcyclicCQ(r *rand.Rand) (*CQ, []string) {
	nrel := 1 + r.Intn(3)
	var relNames []string
	arity := map[string]int{}
	for i := 0; i < nrel; i++ {
		name := fmt.Sprintf("R%d", i)
		relNames = append(relNames, name)
		arity[name] = 1 + r.Intn(3)
	}
	natoms := 1 + r.Intn(4)
	var vars []logic.Var
	fresh := func() logic.Var {
		v := logic.Var(fmt.Sprintf("v%d", len(vars)))
		vars = append(vars, v)
		return v
	}
	q := &CQ{}
	for i := 0; i < natoms; i++ {
		rel := relNames[r.Intn(nrel)]
		a := Atom{Rel: rel}
		var pool []logic.Var
		if i > 0 {
			// Share only with one prior atom to stay acyclic.
			pool = q.Atoms[r.Intn(i)].Vars
		}
		for p := 0; p < arity[rel]; p++ {
			if len(pool) > 0 && r.Intn(2) == 0 {
				a.Vars = append(a.Vars, pool[r.Intn(len(pool))])
			} else {
				a.Vars = append(a.Vars, fresh())
			}
		}
		q.Atoms = append(q.Atoms, a)
	}
	seen := map[logic.Var]bool{}
	var occurring []logic.Var
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				occurring = append(occurring, v)
			}
		}
	}
	r.Shuffle(len(occurring), func(i, j int) { occurring[i], occurring[j] = occurring[j], occurring[i] })
	nh := r.Intn(len(occurring) + 1) // 0 = boolean query
	q.Head = append(q.Head, occurring[:nh]...)
	return q, relNames
}

func randomCQDB(r *rand.Rand, relNames []string, arities map[string]int) *database.Database {
	n := 3 + r.Intn(6)
	b := database.NewBuilder()
	for _, name := range relNames {
		b.Relation(name, arities[name])
	}
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for _, name := range relNames {
		cnt := r.Intn(2 * n)
		for i := 0; i < cnt; i++ {
			row := make([]int, arities[name])
			for j := range row {
				row[j] = r.Intn(n)
			}
			b.Add(name, row...)
		}
	}
	return b.MustBuild()
}

// TestEnumMatchesYannakakis is the core streaming differential: for random
// acyclic CQs over random databases, draining the enumerator yields exactly
// the materialized Yannakakis answer, in Set.Tuples (lexicographic) order.
func TestEnumMatchesYannakakis(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		q, relNames := randomAcyclicCQ(r)
		arities := map[string]int{}
		for _, a := range q.Atoms {
			arities[a.Rel] = len(a.Vars)
		}
		db := randomCQDB(r, relNames, arities)
		before := db.String()
		want, _, err := EvalYannakakis(q, db)
		if err != nil {
			t.Fatalf("trial %d: materialized: %v (query %+v)", trial, err, q)
		}
		en, _, err := EnumYannakakis(context.Background(), q, db)
		if err != nil {
			t.Fatalf("trial %d: enum: %v (query %+v)", trial, err, q)
		}
		wantTuples := want.Tuples()
		var got []relation.Tuple
		for tp, ok := en.Next(); ok; tp, ok = en.Next() {
			got = append(got, tp.Clone())
		}
		if en.Err() != nil {
			t.Fatalf("trial %d: enum error: %v", trial, en.Err())
		}
		en.Close()
		// Atoms without a repeated variable run on the database's own
		// relations: both pipelines must only read them.
		if db.String() != before {
			t.Fatalf("trial %d: a Yannakakis run changed the database (query %+v)\nbefore %s\nafter  %s", trial, q, before, db)
		}
		if len(got) != len(wantTuples) {
			t.Fatalf("trial %d: enum yielded %d tuples, want %d (query %+v)", trial, len(got), len(wantTuples), q)
		}
		for i := range got {
			if !got[i].Equal(wantTuples[i]) {
				t.Fatalf("trial %d: tuple %d = %v, want %v (query %+v)", trial, i, got[i], wantTuples[i], q)
			}
		}
	}
}

// TestEnumCancellation checks that a cancelled context stops enumeration
// with a reported error rather than a hang or silent truncation.
func TestEnumCancellation(t *testing.T) {
	db := lineDB(t, 30)
	q := ChainCQ(2)
	ctx, cancel := context.WithCancel(context.Background())
	en, _, err := EnumYannakakis(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := en.Next(); !ok {
		t.Fatal("no first tuple")
	}
	cancel()
	// The current group buffer may still drain; after it, Next must stop.
	for i := 0; i < 10000; i++ {
		if _, ok := en.Next(); !ok {
			break
		}
	}
	if _, ok := en.Next(); ok {
		t.Fatal("Next kept yielding after cancellation")
	}
	if en.Err() == nil {
		t.Fatal("Err is nil after cancellation")
	}
}

// TestEnumCyclicRejected pins that the enumerator refuses cyclic queries
// with ErrCyclic, like the materializing executor.
func TestEnumCyclicRejected(t *testing.T) {
	q := &CQ{
		Head: []logic.Var{"x"},
		Atoms: []Atom{
			{Rel: "E", Vars: []logic.Var{"x", "y"}},
			{Rel: "E", Vars: []logic.Var{"y", "z"}},
			{Rel: "E", Vars: []logic.Var{"z", "x"}},
		},
	}
	db := lineDB(t, 4)
	if _, _, err := EnumYannakakis(context.Background(), q, db); err == nil {
		t.Fatal("cyclic query accepted")
	}
}
