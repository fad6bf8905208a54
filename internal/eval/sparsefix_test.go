package eval

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// sparseFixCase is one fixpoint of the serving benchmark's churn workload — a
// query family on a database shape — compiled once, as bvqd holds it.
type sparseFixCase struct {
	name string
	p    *plan.Plan
	db   *database.Database
}

// sparseFixCases are tc and reach over 64 elements: a forest of 16-node paths,
// where a loop runs 15 thin stages, and out-degree 3, where it runs few thick
// ones. S holds one source per path.
func sparseFixCases(t testing.TB) []sparseFixCase {
	r := rand.New(rand.NewSource(23))
	forest := database.NewBuilder().Relation("E", 2).Relation("S", 1)
	deg3 := database.NewBuilder().Relation("E", 2).Relation("S", 1)
	for i := 0; i < 64; i++ {
		forest.Domain(i)
		deg3.Domain(i)
		if i%16 == 0 {
			forest.Add("S", i)
			deg3.Add("S", i)
		} else {
			forest.Add("E", i-1, i)
		}
		for _, j := range r.Perm(64)[:3] {
			deg3.Add("E", i, j)
		}
	}
	var out []sparseFixCase
	for _, fam := range []struct{ name, text string }{
		{"tc", "(x, y). [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)"},
		{"reach", "(u). [lfp R(x). S(x) | (exists z. (E(z, x) & (exists x. (x = z & R(x)))))](u)"},
	} {
		q, err := parser.ParseQuery(fam.text)
		if err != nil {
			t.Fatal(err)
		}
		p := mustCompile(t, q)
		out = append(out, sparseFixCase{fam.name + "/forest", p, forest.MustBuild()}, sparseFixCase{fam.name + "/deg3", p, deg3.MustBuild()})
	}
	return out
}

// eval runs the case to its head value on the sparse route, as a streamed
// request does: the answer is not decoded into a Set, whose map would be more
// than half of what an evaluation allocates and none of it the stage loop's.
func (c sparseFixCase) eval(t testing.TB) {
	e, _, err := EvalPlanEnum(context.Background(), c.p, c.db, &Options{Backend: BackendSparse})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
}

// BenchmarkSparseFix prices one sparse-route evaluation of each case; run with
// -benchmem, its B/op and allocs/op are what TestSparseFixAllocs holds down.
func BenchmarkSparseFix(b *testing.B) {
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = false // TestMain's: time spent overwriting is not the engine's
	for _, c := range sparseFixCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.eval(b)
			}
		})
	}
}

// BenchmarkFilteredHop prices miss-direct's sparse texts as bvqd runs them: a
// unary filter on the source, the target or the middle node of a 2-hop path and
// on the source of a 3-hop one, over 2,000 elements of out-degree 3 (6,000
// edges, 18,000 and 54,000 paths, 21 filter tuples), through a warm node store.
// Every run reads a filter content no earlier run read (FreshContents, applied
// outside the timer), as a text with a filter of its own finds it: the edge
// atoms and the path body come from the store, the filter and what is above it
// are computed. Store-less the 4 ms
// join hides the filter.
func BenchmarkFilteredHop(b *testing.B) {
	defer func(was bool) { poisonReleased = was }(poisonReleased)
	poisonReleased = false // TestMain's: time spent overwriting is not the engine's
	db := sparseDigraph()
	for _, c := range []struct{ name, text string }{
		{"hop2+src", "(x, y). P(x) & (exists z. (E(x, z) & E(z, y)))"},
		{"hop2+dst", "(x, y). P(y) & (exists z. (E(x, z) & E(z, y)))"},
		{"hop2+mid", "(x, y). exists z. (E(x, z) & P(z) & E(z, y))"},
		{"hop3+src", "(x, y). P(x) & (exists z. (E(x, z) & (exists x. (E(z, x) & (E(x, y))))))"},
	} {
		q, err := parser.ParseQuery(c.text)
		if err != nil {
			b.Fatal(err)
		}
		p, opts := mustCompile(b, q), &Options{Nodes: NewNodeStore(64 << 20)}
		fresh, next := FreshContents(b, db, "P"), 0
		eval := func() *Stats {
			b.StopTimer()
			db := fresh(next)
			next++
			b.StartTimer()
			_, st, _, err := EvalPlan(context.Background(), p, db, opts, nil, false)
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		eval()
		eval() // the second offer of a value is the one the store keeps
		if st := eval(); st.NodesShared == 0 {
			b.Fatalf("%s: the third run took nothing from the store: %+v", c.name, st)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval()
			}
		})
	}
}

// sparseDigraph is workload.SparseDigraph(1, 2000, 3), which this package
// cannot import: 2,000 elements, 6,000 edges, P on every 97th element.
func sparseDigraph() *database.Database {
	r := rand.New(rand.NewSource(1))
	bld := database.NewBuilder().Relation("E", 2).Relation("P", 1)
	for i := 0; i < 2000; i++ {
		bld.Domain(i)
	}
	for e := 0; e < 6000; e++ {
		if u, v := r.Intn(2000), r.Intn(2000); u != v {
			bld.Add("E", u, v)
		}
	}
	for i := 0; i < 2000; i += 97 {
		bld.Add("P", i)
	}
	return bld.MustBuild()
}

// TestFilterBeforeJoin is the work counter of the filter pushdown: store-less,
// P(x) ∧ ∃z(E(x,z) ∧ E(z,y)) on sparseDigraph writes its two edge atoms and a
// few hundred tuples more (442); joining before filtering writes the 18,000
// 2-hop paths first (35,741 more).
func TestFilterBeforeJoin(t *testing.T) {
	db := sparseDigraph()
	q, err := parser.ParseQuery("(x, y). P(x) & (exists z. (E(x, z) & E(z, y)))")
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := CompiledStats(q, db, &Options{Backend: BackendSparse})
	if err != nil {
		t.Fatal(err)
	}
	edges, err := db.Rel("E")
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.Rel("P")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewSet(2) // the 2-hop walks from P, joined by hand
	edges.ForEach(func(xz relation.Tuple) {
		if p.Contains(relation.Tuple{xz[0]}) {
			edges.ForEach(func(zy relation.Tuple) {
				if zy[0] == xz[1] {
					want.Add(relation.Tuple{xz[0], zy[1]})
				}
			})
		}
	})
	if !got.Equal(want) {
		t.Fatalf("%d pairs, by hand %d", got.Len(), want.Len())
	}
	if beyond := st.TuplesTouched - 2*int64(edges.Len()); beyond > 1000 {
		t.Fatalf("%d tuples written beside the edge atoms, want a few hundred (%d pairs answer)", beyond, got.Len())
	}
}

// FreshContents returns fresh(i): db with the unary relation rel holding, on
// top of what it holds, the i-th set of the m values it lacks, the sets taken
// by size (one, two, three values) and in colexicographic order within a size.
// No content comes back within m + C(m,2) + C(m,3) calls, so a node store, which
// keeps a value on its second offer, hits nothing of rel's: the cold filter
// side of a text with a filter of its own. Exported for crossover_test.go.
func FreshContents(tb testing.TB, db *database.Database, rel string) func(i int) *database.Database {
	held, err := db.Rel(rel)
	if err != nil {
		tb.Fatal(err)
	}
	var lacks []int
	for x := 0; x < db.Size(); x++ {
		if !held.Contains(relation.Tuple{x}) {
			lacks = append(lacks, db.Value(x))
		}
	}
	binom := func(n, k int) int {
		out := 1
		for j := 0; j < k; j++ {
			out = out * (n - j) / (j + 1)
		}
		return out
	}
	m := len(lacks)
	return func(i int) *database.Database {
		k := 1
		for i %= binom(m, 1) + binom(m, 2) + binom(m, 3); i >= binom(m, k); k++ {
			i -= binom(m, k)
		}
		ins := make([]relation.Tuple, k)
		for ; k > 0; k-- { // the largest c with C(c, k) ≤ i is the k-th value
			c := k - 1
			for binom(c+1, k) <= i {
				c++
			}
			ins[k-1], i = relation.Tuple{lacks[c]}, i-binom(c, k)
		}
		next, _, err := db.Apply([]database.Update{{Relation: rel, Insert: ins}})
		if err != nil {
			tb.Fatal(err)
		}
		return next
	}
}

// TestSparseFixAllocs is the allocation gate beside BenchmarkSparseFix: the
// ceilings are what PR 23 reached plus a tenth (EXPERIMENTS.md "PR 23" has the
// parent's figures: 1684 allocations and 308 KB on tc/forest). An evaluation
// that copies a value per stage again, or stops recycling, passes them at once.
func TestSparseFixAllocs(t *testing.T) {
	ceilings := map[string][2]float64{ // allocations, bytes
		"tc/forest":    {550, 82 << 10},
		"tc/deg3":      {370, 1000 << 10},
		"reach/forest": {640, 49 << 10},
		"reach/deg3":   {370, 44 << 10},
	}
	for _, c := range sparseFixCases(t) {
		allocs, bytes := allocsPerRun(20, func() { c.eval(t) })
		if max := ceilings[c.name]; allocs > max[0] || bytes > max[1] {
			t.Errorf("%s: %.0f allocations and %.0f bytes an evaluation, ceilings %.0f and %.0f", c.name, allocs, bytes, max[0], max[1])
		}
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// sparseVal builds a positive value over sup from tuples, in a block with room.
func sparseVal(t *testing.T, sa *sparseAlg, sup []int, tuples ...relation.Tuple) *sval {
	t.Helper()
	bld, err := sa.blocks.Builder(len(sup), sa.n)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		if err := bld.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	return &sval{sup: sup, rel: bld.Build()}
}

// TestSparsePassThroughsShare takes every op that can answer with its
// argument's own block — ¬, a quantifier over an axis outside the support,
// a stage read through ascending axes, a projection onto the support as it
// stands, a one-sided Δ∨ on an equal support, a clone — and checks the
// contract in-place mutation rests on: argument and result are both shared
// afterwards, so that growing the argument by union, subtracting from it and
// releasing it (poisoned) all leave the result what it was. A seed and a
// captured stage are frozen the same way.
func TestSparsePassThroughsShare(t *testing.T) {
	db := lineDB(6)
	den := mustCompile(t, tcQuerySparse()).Density(db.Size(), cardOf(db))
	ops := map[string]func(sa *sparseAlg, x *sval) (*sval, error){
		"not":          func(sa *sparseAlg, x *sval) (*sval, error) { return sa.not(x) },
		"exists":       func(sa *sparseAlg, x *sval) (*sval, error) { return sa.exists(x, 2) },
		"forall":       func(sa *sparseAlg, x *sval) (*sval, error) { return sa.forall(x, 2) },
		"delta-exists": func(sa *sparseAlg, x *sval) (*sval, error) { return sa.deltaExists(x, 2) },
		"stage-atom":   func(sa *sparseAlg, x *sval) (*sval, error) { return sa.stageAtom(x, []int{1, 3}) },
		"project":      func(sa *sparseAlg, x *sval) (*sval, error) { return sa.project(x, []int{0, 1}, nil, nil) },
		"delta-or":     func(sa *sparseAlg, x *sval) (*sval, error) { return sa.deltaOr(x, x, nil) },
		"clone-frozen": func(sa *sparseAlg, x *sval) (*sval, error) { sa.freeze(x, ""); return sa.clone(x), nil },
		"from-stage": func(sa *sparseAlg, x *sval) (*sval, error) {
			return sa.fromStage(sa.stageOf(x), 2)
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			sa := &sparseAlg{db: db, n: db.Size(), budget: defaultSparseBudget, den: den}
			sa.blocks.Poison()
			x := sparseVal(t, sa, []int{0, 1}, relation.Tuple{0, 1}, relation.Tuple{2, 3}, relation.Tuple{4, 5})
			more := sparseVal(t, sa, []int{0, 1}, relation.Tuple{1, 1}, relation.Tuple{5, 0})
			less := sparseVal(t, sa, []int{0, 1}, relation.Tuple{2, 3})
			extra := sparseVal(t, sa, []int{0, 1}, relation.Tuple{3, 3})
			y, err := op(sa, x)
			if err != nil {
				t.Fatal(err)
			}
			if y.rel != x.rel || !y.shared || !x.shared {
				t.Fatalf("result on its argument's block: %v; shared: argument %v, result %v", y.rel == x.rel, x.shared, y.shared)
			}
			was := y.rel.Clone()
			grown := sa.union(x, more)
			if grown == x || grown.shared || grown.rel.Count() != 5 {
				t.Fatalf("union of a shared value: same value %v, shared %v, %d tuples", grown == x, grown.shared, grown.rel.Count())
			}
			if cut, n := sa.minus(x, less); cut == x || n != 2 {
				t.Fatalf("minus of a shared value: same value %v, %d tuples", cut == x, n)
			}
			sa.release(x)
			sa.release(y)
			if !y.rel.Equal(was) {
				t.Fatalf("the result changed under its argument: %v, was %v", y.rel, was)
			}
			// What the run does own it grows where it is, and gives back.
			if again := sa.union(grown, extra); again != grown || grown.rel.Count() != 6 {
				t.Fatalf("union of an owned value: same value %v, %d tuples", again == grown, grown.rel.Count())
			}
			if sa.release(grown); grown.rel.Count() == 6 && grown.rel.Contains(relation.Tuple{0, 1}) {
				t.Fatal("a released owned block was not poisoned")
			}
		})
	}
}

// TestSparseVacuousExistsOverDirtyNode is the pass-through that loses a delta
// silently when it is not shared: ∃z over a recursion atom that does not
// mention z, so that the quantifier's value is its child's block. Growing the
// child in place would grow the parent too, the parent's own delta would come
// out empty, and the loop would stop short. Sparse must agree with dense and
// with Naive on answers and on the number of stages.
func TestSparseVacuousExistsOverDirtyNode(t *testing.T) {
	for _, text := range []string{
		"(x, y). [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & (exists x. (x = z & (exists z. T(x, y))))))](x, y)",
		"(u). [lfp R(x). P(x) | (exists z. (E(z, x) & (exists x. (x = z & (exists z. (exists y. R(x)))))))](u)",
		"(x, y). [lfp T(x, y). E(x, y) | ((exists z. T(x, y)) & (exists z. T(x, y))) | (exists z. (E(x, z) & T(z, y)))](x, y)",
	} {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range []*database.Database{lineDB(7), forestDB(12, 4), randomGraph(t, rand.New(rand.NewSource(5)), 6)} {
			want, err := Naive(q, db)
			if err != nil {
				t.Fatal(err)
			}
			_, dst, err := CompiledStats(q, db, &Options{Backend: BackendDense})
			if err != nil {
				t.Fatal(err)
			}
			got, sst, err := CompiledStats(q, db, &Options{Backend: BackendSparse})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || sst.FixIterations != dst.FixIterations || sst.DeltaTuples != dst.DeltaTuples {
				t.Fatalf("%s on %d elements: sparse %d tuples in %d stages (Δ %d), dense %d stages (Δ %d), Naive %d tuples",
					text, db.Size(), got.Len(), sst.FixIterations, sst.DeltaTuples, dst.FixIterations, dst.DeltaTuples, want.Len())
			}
		}
	}
}

// TestMain runs the package's tests with released sparse blocks poisoned: a
// value read after its release, or released twice, is then a wrong answer in
// whichever differential, pin or fuzz corpus meets it, not luck.
func TestMain(m *testing.M) {
	poisonReleased = true
	os.Exit(m.Run())
}
