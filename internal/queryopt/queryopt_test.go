package queryopt_test

import (
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/plan"
	. "repro/internal/queryopt"
	"repro/internal/relation"
	"repro/internal/workload"
)

func lineDB(t testing.TB, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder().Relation("E", 2)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	for i := 0; i+1 < n; i++ {
		b.Add("E", i, i+1)
	}
	return b.MustBuild()
}

// corporateDB builds the §1 EMP/MGR/SCY/SAL database with ne employees.
func corporateDB(t testing.TB, r *rand.Rand, ne int) *database.Database {
	t.Helper()
	// Identifier layout: employees 0..ne−1, departments ne..ne+nd−1,
	// managers are employees, secretaries are employees, salaries are
	// values 100..100+maxSal.
	nd := 1 + ne/3
	b := database.NewBuilder().
		Relation("EMP", 2).Relation("MGR", 2).Relation("SCY", 2).Relation("SAL", 2)
	mgrOf := make([]int, nd)
	for d := 0; d < nd; d++ {
		mgrOf[d] = r.Intn(ne)
		b.Add("MGR", ne+d, mgrOf[d])
		b.Add("SCY", mgrOf[d], r.Intn(ne))
	}
	for e := 0; e < ne; e++ {
		b.Add("EMP", e, ne+r.Intn(nd))
		b.Add("SAL", e, 100+r.Intn(5))
	}
	return b.MustBuild()
}

// employeesCQ is the §1 query answer(e, se, ss) ← EMP(e,d), MGR(d,m),
// SCY(m,s), SAL(e,se), SAL2(s,ss).
func employeesCQ() *CQ {
	return &CQ{
		Head: []logic.Var{"e", "se", "ss"},
		Atoms: []Atom{
			{Rel: "EMP", Vars: []logic.Var{"e", "d"}},
			{Rel: "MGR", Vars: []logic.Var{"d", "m"}},
			{Rel: "SCY", Vars: []logic.Var{"m", "s"}},
			{Rel: "SAL", Vars: []logic.Var{"e", "se"}},
			{Rel: "SAL2", Vars: []logic.Var{"s", "ss"}},
		},
	}
}

func TestValidateCQ(t *testing.T) {
	bad := []*CQ{
		{},
		{Head: []logic.Var{"x"}, Atoms: []Atom{{Rel: "E", Vars: []logic.Var{"y", "z"}}}},
		{Head: []logic.Var{"x", "x"}, Atoms: []Atom{{Rel: "E", Vars: []logic.Var{"x", "x"}}}},
		{Atoms: []Atom{{Rel: "", Vars: []logic.Var{"x"}}}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid CQ accepted", i)
		}
	}
}

// TestAcyclicityChainAndTriangle: the compiled engine narrows an acyclic
// chain written with a variable per node to three, and leaves a triangle,
// whose three variables are live together at its last ∃, as written.
func TestAcyclicityChainAndTriangle(t *testing.T) {
	if _, width := minimizeWidth(t, ChainCQ(4)); width != 3 {
		t.Fatalf("4-chain: width %d, want 3", width)
	}
	triangle := &CQ{
		Head: []logic.Var{"x"},
		Atoms: []Atom{
			{Rel: "E", Vars: []logic.Var{"x", "y"}},
			{Rel: "E", Vars: []logic.Var{"y", "z"}},
			{Rel: "E", Vars: []logic.Var{"z", "x"}},
		},
	}
	fo, err := triangle.ToFO()
	if err != nil {
		t.Fatal(err)
	}
	if scoped, width := minimizeWidth(t, triangle); width != 3 || scoped.Body.String() != fo.Body.String() {
		t.Fatalf("triangle: width %d, lowered from %s", width, scoped.Body)
	}
}

// minimizeWidth is bvq.MinimizeWidth: the body the compiled engine lowers
// the query's direct first-order form from, with that plan's width.
func minimizeWidth(t testing.TB, q *CQ) (logic.Query, int) {
	t.Helper()
	fo, err := q.ToFO()
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(fo)
	if err != nil {
		t.Fatal(err)
	}
	return logic.Query{Head: fo.Head, Body: p.Body}, len(p.Vars)
}

// compiled runs the CQ's text as written on the compiled engine, which
// lowers it from its scoped form.
func compiled(t *testing.T, q *CQ, db *database.Database) (*relation.Set, *eval.Stats) {
	t.Helper()
	fo, err := q.ToFO()
	if err != nil {
		t.Fatal(err)
	}
	ans, st, err := eval.CompiledStats(fo, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ans, st
}

func TestNaiveAndCompiledAgree(t *testing.T) {
	db := lineDB(t, 7)
	for m := 1; m <= 4; m++ {
		q := ChainCQ(m)
		naive, _, err := EvalNaive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want := relation.NewSet(2)
		for i := 0; i+m < 7; i++ {
			want.Add(relation.Tuple{i, i + m})
		}
		if !naive.Equal(want) {
			t.Fatalf("m=%d: answer %v, want %v", m, naive, want)
		}
		if got, _ := compiled(t, q, db); !got.Equal(want) {
			t.Fatalf("m=%d: compiled %v, want %v", m, got, want)
		}
	}
}

// TestYannakakisBoundedArity: the §1 observation on the engine that serves.
// The naive plan of a 5-chain materialises a 10-ary product; the compiled
// engine runs the chain and the employees query from their scoped forms
// and never builds an intermediate wider than 4.
func TestYannakakisBoundedArity(t *testing.T) {
	db := lineDB(t, 6)
	_, naiveStats, err := EvalNaive(ChainCQ(5), db)
	if err != nil {
		t.Fatal(err)
	}
	if naiveStats.MaxIntermediateArity != 10 {
		t.Fatalf("naive max arity = %d, want 10", naiveStats.MaxIntermediateArity)
	}
	for name, c := range map[string]struct {
		q  *CQ
		db *database.Database
	}{
		"chain5":    {ChainCQ(5), db},
		"employees": {employeesCQ(), workload.Corporate(1, 12)},
	} {
		if _, st := compiled(t, c.q, c.db); st.AcyclicFastPath != 1 || st.MaxIntermediateArity > 4 {
			t.Fatalf("%s: compiled AcyclicFastPath = %d, max arity = %d; want 1 and ≤ 4",
				name, st.AcyclicFastPath, st.MaxIntermediateArity)
		}
	}
}

func TestToFOMatchesEvaluators(t *testing.T) {
	db := lineDB(t, 6)
	q := ChainCQ(3)
	fo, err := q.ToFO()
	if err != nil {
		t.Fatal(err)
	}
	if fo.Width() != 4 {
		t.Fatalf("direct FO width = %d, want 4", fo.Width())
	}
	foAns, err := eval.BottomUp(fo, db)
	if err != nil {
		t.Fatal(err)
	}
	naive, _, err := EvalNaive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !foAns.Equal(naive) {
		t.Fatalf("FO answer %v != naive %v", foAns, naive)
	}
}

func TestChainToFO3(t *testing.T) {
	db := lineDB(t, 8)
	for m := 1; m <= 5; m++ {
		q3, err := ChainToFO3(m)
		if err != nil {
			t.Fatal(err)
		}
		if q3.Width() > 3 {
			t.Fatalf("minimized width = %d", q3.Width())
		}
		ans3, err := eval.BottomUp(q3, db)
		if err != nil {
			t.Fatal(err)
		}
		naive, _, err := EvalNaive(ChainCQ(m), db)
		if err != nil {
			t.Fatal(err)
		}
		if !ans3.Equal(naive) {
			t.Fatalf("m=%d: FO³ form %v != CQ answer %v", m, ans3, naive)
		}
	}
	if _, err := ChainToFO3(0); err == nil {
		t.Fatal("chain of length 0 accepted")
	}
}

// TestEmployeesQuery runs the paper's §1 example: employees earning less
// than their manager's secretary.
func TestEmployeesQuery(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		db := corporateDB(t, r, 4+r.Intn(5))
		// answer(e) ← EMP(e,d), MGR(d,m), SCY(m,s), SAL(e,se), SAL(s,ss),
		// with the comparison se < ss done outside the CQ (pure CQs have no
		// arithmetic); here we just compute the join and compare plans.
		q := employeesCQ()
		// SAL is used twice; give the second use its own relation name by
		// duplicating it in the database view.
		b := database.NewBuilder()
		for _, name := range db.Names() {
			a, _ := db.Arity(name)
			b.Relation(name, a)
			rel, _ := db.RelValues(name)
			rel.ForEach(func(tp relation.Tuple) { b.Add(name, tp...) })
		}
		b.Relation("SAL2", 2)
		sal, _ := db.RelValues("SAL")
		sal.ForEach(func(tp relation.Tuple) { b.Add("SAL2", tp...) })
		db2 := b.MustBuild()

		naive, naiveStats, err := EvalNaive(q, db2)
		if err != nil {
			t.Fatal(err)
		}
		got, st := compiled(t, q, db2)
		if !naive.Equal(got) {
			t.Fatalf("plans disagree: naive %v, compiled %v", naive, got)
		}
		if naiveStats.MaxIntermediateArity != 10 {
			t.Fatalf("naive arity = %d, want the paper's 10", naiveStats.MaxIntermediateArity)
		}
		if st.MaxIntermediateArity > 4 {
			t.Fatalf("compiled arity = %d, want ≤ 4", st.MaxIntermediateArity)
		}
	}
}

func TestRepeatedVariablesInAtom(t *testing.T) {
	b := database.NewBuilder().Relation("E", 2)
	b.Add("E", 0, 0).Add("E", 0, 1).Add("E", 1, 1)
	db := b.MustBuild()
	q := &CQ{Head: []logic.Var{"x"}, Atoms: []Atom{{Rel: "E", Vars: []logic.Var{"x", "x"}}}}
	naive, _, err := EvalNaive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := compiled(t, q, db)
	want := relation.SetOf(1, relation.Tuple{0}, relation.Tuple{1})
	if !naive.Equal(want) || !got.Equal(want) {
		t.Fatalf("loops: naive %v, compiled %v, want %v", naive, got, want)
	}
}

func TestRandomAcyclicCrossValidation(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		db := lineDB(t, 3+r.Intn(4))
		// Random star/chain mixtures are acyclic.
		m := 1 + r.Intn(4)
		q := ChainCQ(m)
		naive, _, err := EvalNaive(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := compiled(t, q, db)
		fo, err := q.ToFO()
		if err != nil {
			t.Fatal(err)
		}
		bu, err := eval.BottomUp(fo, db)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(got) || !naive.Equal(bu) {
			t.Fatalf("three-way disagreement: %v / %v / %v", naive, got, bu)
		}
	}
}
