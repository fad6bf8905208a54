package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/relation"
)

// simSystem is the mutual even/odd reachability system:
//
//	Even(x) = P(x) ∨ ∃z(E(z,x) ∧ ∃x(x=z ∧ Odd(x)))
//	Odd(x)  = ∃z(E(z,x) ∧ ∃x(x=z ∧ Even(x)))
func simSystem() []logic.SimDef {
	step := func(rel string) logic.Formula {
		return logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R(rel, "x")), "x")), "z")
	}
	return []logic.SimDef{
		{Rel: "Ev", Vars: []logic.Var{"x"}, Body: logic.Or(logic.R("P", "x"), step("Od"))},
		{Rel: "Od", Vars: []logic.Var{"x"}, Body: step("Ev")},
	}
}

// directSimultaneous computes the simultaneous least fixpoint by Kleene
// iteration over the product lattice — the semantic reference.
func directSimultaneous(t *testing.T, defs []logic.SimDef, db *database.Database) []*relation.Set {
	t.Helper()
	cur := make([]*relation.Set, len(defs))
	for i, d := range defs {
		cur[i] = relation.NewSet(len(d.Vars))
	}
	for {
		next := make([]*relation.Set, len(defs))
		for i, d := range defs {
			// Evaluate body with all current components bound, by building
			// a database extension and using the trusted evaluator.
			b := database.NewBuilder()
			for _, name := range db.Names() {
				a, _ := db.Arity(name)
				b.Relation(name, a)
				rel, _ := db.RelValues(name)
				rel.ForEach(func(tp relation.Tuple) { b.Add(name, tp...) })
			}
			for j, dj := range defs {
				b.Relation(dj.Rel, len(dj.Vars))
				cur[j].ForEach(func(tp relation.Tuple) {
					raw := make([]int, len(tp))
					for q, v := range tp {
						raw[q] = db.Value(v)
					}
					b.Add(dj.Rel, raw...)
				})
			}
			ext, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			q := logic.MustQuery(d.Vars, d.Body)
			ans, err := Naive(q, ext)
			if err != nil {
				t.Fatal(err)
			}
			next[i] = ans
		}
		same := true
		for i := range next {
			if !next[i].Equal(cur[i]) {
				same = false
			}
		}
		cur = next
		if same {
			return cur
		}
	}
}

func TestBekicMatchesSimultaneous(t *testing.T) {
	defs := simSystem()
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		want := directSimultaneous(t, defs, db)
		for which := 0; which < len(defs); which++ {
			f, err := logic.BekicLfp(defs, which, []logic.Var{"u"})
			if err != nil {
				t.Fatal(err)
			}
			if err := logic.Validate(f, nil); err != nil {
				t.Fatalf("Bekić output invalid: %v\n%s", err, f)
			}
			if d := logic.DependentAlternationDepth(f); d > 1 {
				t.Fatalf("Bekić output has dependent alternation depth %d", d)
			}
			q := logic.MustQuery([]logic.Var{"u"}, f)
			got, err := BottomUp(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want[which]) {
				t.Fatalf("component %d: Bekić %v != simultaneous %v on\n%s",
					which, got, want[which], db)
			}
			// Monotone accepts it (same-polarity nesting).
			mo, _, err := MonotoneContext(context.Background(), q, db, nil)
			if err != nil {
				t.Fatalf("Monotone rejected Bekić output: %v", err)
			}
			if !mo.Equal(got) {
				t.Fatalf("Monotone disagrees on Bekić output")
			}
		}
	}
}

func TestBekicThreeEquations(t *testing.T) {
	// Distance mod 3 from P: three mutually recursive components.
	step := func(rel string) logic.Formula {
		return logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R(rel, "x")), "x")), "z")
	}
	defs := []logic.SimDef{
		{Rel: "D0", Vars: []logic.Var{"x"}, Body: logic.Or(logic.R("P", "x"), step("D2"))},
		{Rel: "D1", Vars: []logic.Var{"x"}, Body: step("D0")},
		{Rel: "D2", Vars: []logic.Var{"x"}, Body: step("D1")},
	}
	db := lineGraph(t, 7)
	want := directSimultaneous(t, defs, db)
	for which := 0; which < 3; which++ {
		f, err := logic.BekicLfp(defs, which, []logic.Var{"u"})
		if err != nil {
			t.Fatal(err)
		}
		q := logic.MustQuery([]logic.Var{"u"}, f)
		got, err := BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want[which]) {
			t.Fatalf("component %d: Bekić %v != simultaneous %v", which, got, want[which])
		}
	}
	// On the 7-node line with P={0}: distances 0..6 → D0={0,3,6}.
	f0, _ := logic.BekicLfp(defs, 0, []logic.Var{"u"})
	got, _ := BottomUp(logic.MustQuery([]logic.Var{"u"}, f0), db)
	wantD0 := relation.SetOf(1, relation.Tuple{0}, relation.Tuple{3}, relation.Tuple{6})
	if !got.Equal(wantD0) {
		t.Fatalf("D0 = %v, want %v", got, wantD0)
	}
}

// directSimultaneousGfp mirrors directSimultaneous from the top element.
func directSimultaneousGfp(t *testing.T, defs []logic.SimDef, db *database.Database) []*relation.Set {
	t.Helper()
	cur := make([]*relation.Set, len(defs))
	for i, d := range defs {
		full := relation.NewSet(len(d.Vars))
		forEachAssignment(db.Size(), len(d.Vars), func(tp []int) bool { full.Add(tp); return true })
		cur[i] = full
	}
	for {
		next := make([]*relation.Set, len(defs))
		for i, d := range defs {
			b := database.NewBuilder()
			for _, name := range db.Names() {
				a, _ := db.Arity(name)
				b.Relation(name, a)
				rel, _ := db.RelValues(name)
				rel.ForEach(func(tp relation.Tuple) { b.Add(name, tp...) })
			}
			for j, dj := range defs {
				b.Relation(dj.Rel, len(dj.Vars))
				cur[j].ForEach(func(tp relation.Tuple) {
					raw := make([]int, len(tp))
					for q, v := range tp {
						raw[q] = db.Value(v)
					}
					b.Add(dj.Rel, raw...)
				})
			}
			ext, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			q := logic.MustQuery(d.Vars, d.Body)
			ans, err := Naive(q, ext)
			if err != nil {
				t.Fatal(err)
			}
			next[i] = ans
		}
		same := true
		for i := range next {
			if !next[i].Equal(cur[i]) {
				same = false
			}
		}
		cur = next
		if same {
			return cur
		}
	}
}

func TestBekicGfpMatchesSimultaneous(t *testing.T) {
	// Mutual "safe" system: A(x) = hasSucc∧B-step, B(x) = P(x)∧A-step —
	// greatest solutions.
	step := func(rel string) logic.Formula {
		return logic.Exists(logic.And(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.Equal("x", "y"), logic.R(rel, "x")), "x")), "y")
	}
	defs := []logic.SimDef{
		{Rel: "A", Vars: []logic.Var{"x"}, Body: step("B")},
		{Rel: "B", Vars: []logic.Var{"x"}, Body: logic.And(logic.R("P", "x"), step("A"))},
	}
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 10; trial++ {
		db := randomGraph(t, r, 2+r.Intn(3))
		want := directSimultaneousGfp(t, defs, db)
		for which := 0; which < len(defs); which++ {
			f, err := logic.BekicGfp(defs, which, []logic.Var{"u"})
			if err != nil {
				t.Fatal(err)
			}
			q := logic.MustQuery([]logic.Var{"u"}, f)
			got, err := BottomUp(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want[which]) {
				t.Fatalf("gfp component %d: Bekić %v != simultaneous %v on\n%s",
					which, got, want[which], db)
			}
		}
	}
}

func TestBekicValidation(t *testing.T) {
	if _, err := logic.BekicLfp(nil, 0, nil); err == nil {
		t.Fatal("empty system accepted")
	}
	defs := simSystem()
	if _, err := logic.BekicLfp(defs, 5, []logic.Var{"u"}); err == nil {
		t.Fatal("out-of-range component accepted")
	}
	if _, err := logic.BekicLfp(defs, 0, []logic.Var{"u", "v"}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	dup := []logic.SimDef{defs[0], defs[0]}
	if _, err := logic.BekicLfp(dup, 0, []logic.Var{"u"}); err == nil {
		t.Fatal("duplicate relation accepted")
	}
}
