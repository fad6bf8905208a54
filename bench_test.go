package bvq

// Benchmark harness: one family per row of the paper's Tables 1–3 (see
// DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// results). The absolute numbers are machine-dependent; the *shapes* are
// the reproduction targets:
//
//	T2-FO    combined complexity of FOᵏ: naive evaluation explodes with the
//	         expression length m, bottom-up stays ~linear (PSPACE vs PTIME).
//	T2-FO-h  Prop 3.2: evaluating the FO³ reduction of Path Systems tracks
//	         the PTIME-complete problem; the direct solver is the baseline.
//	T2-FP    Thm 3.5: naive nested fixpoints cost n^{kl}; certificate
//	         verification costs l·nᵏ (exponential vs linear in the
//	         alternation depth l).
//	T2-ESO   Cor 3.7: naive relation enumeration is doubly exponential in
//	         the quantified arity; Lemma 3.6 + grounding + SAT is not.
//	T2-PFP   Thm 3.8: PFP runs under the two cycle detectors (hash: more
//	         memory; Brent: constant live relations, ~3× the stages).
//	T3-FO    Thm 4.1/Lemma 4.2: at fixed B, the one-pass stack evaluation
//	         of a compiled word is linear in the expression length.
//	T3-ESO   Thm 4.5: SAT → ESO⁰ over a fixed database; cost tracks SAT.
//	T3-PFP   Thm 4.6: QBF → PFP² over B₀; cost is exponential in the
//	         number of quantifiers for both the reduction route and the
//	         direct solver.
//	APP-MU   §1: µ-calculus model checking, direct vs FP² vs certified.
//	OPT-*    §1/§5: intermediate-result minimization (employees join,
//	         variable-minimized chain queries).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/eval"
	"repro/internal/eval/eso"
	"repro/internal/grammar"
	"repro/internal/logic"
	"repro/internal/mucalc"
	"repro/internal/pathsys"
	"repro/internal/prop"
	"repro/internal/qbf"
	"repro/internal/queryopt"
	"repro/internal/relation"
	"repro/internal/workload"
)

// ---- T2-FO: combined complexity of FOᵏ ----

func pathQuery(b *testing.B, m int) logic.Query {
	b.Helper()
	q, err := queryopt.ChainToFO3(m)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func BenchmarkT2FO_Naive(b *testing.B) {
	db := workload.LineGraph(8)
	for _, m := range []int{2, 3, 4} {
		q := pathQuery(b, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Naive(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT2FO_BottomUp(b *testing.B) {
	db := workload.LineGraph(8)
	for _, m := range []int{2, 4, 8, 16, 32} {
		q := pathQuery(b, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.BottomUp(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- T2-FO-hardness: Prop 3.2 ----

func BenchmarkT2FOHardness(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		r := rand.New(rand.NewSource(int64(n)))
		in := pathsys.Random(r, n, 3*n)
		db, err := in.ToDatabase()
		if err != nil {
			b.Fatal(err)
		}
		q, err := pathsys.Query(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("reduction/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.BottomUp(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.Solve()
			}
		})
	}
}

// ---- T2-FP: Thm 3.5 ----

// alternating builds the depth-d alternating reachability formula used by
// the certificate tests.
func alternating(d int) logic.Query {
	step := func(rel string, inner logic.Formula) logic.Formula {
		return logic.Or(inner,
			logic.Exists(logic.And(logic.R("E", "z", "x"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R(rel, "x")), "x")), "z"))
	}
	f := logic.Formula(logic.R("P", "x"))
	op := logic.LFP
	for i := 1; i <= d; i++ {
		rel := fmt.Sprintf("S%d", i)
		body := step(rel, f)
		if op == logic.GFP {
			body = logic.And(step(rel, f), logic.Or(logic.R(rel, "x"), logic.True))
		}
		f = logic.Fix{Op: op, Rel: rel, Vars: []logic.Var{"x"}, Body: body, Args: []logic.Var{"x"}}
		if op == logic.LFP {
			op = logic.GFP
		} else {
			op = logic.LFP
		}
	}
	return logic.MustQuery([]logic.Var{"x"}, f)
}

func BenchmarkT2FP_NaiveNested(b *testing.B) {
	db := workload.CycleGraph(6)
	for _, d := range []int{1, 2, 3} {
		q := alternating(d)
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.BottomUp(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// shrinkingNuMu drives the n^{kl} worst case: the outer ν drops one node
// per stage and the inner µ costs Θ(n) per stage under cold restarts.
func shrinkingNuMu() logic.Query {
	hasSuccInS := logic.Exists(logic.And(logic.R("E", "x", "y"),
		logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x")), "y")
	innerBody := logic.Or(
		logic.And(logic.R("P", "x"), logic.R("S", "x")),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("T", "x")), "x")), "z"))
	inner := logic.Lfp("T", []logic.Var{"x"}, innerBody, "x")
	outer := logic.Gfp("S", []logic.Var{"x"}, logic.And(hasSuccInS, inner), "x")
	return logic.MustQuery([]logic.Var{"x"}, outer)
}

func BenchmarkT2FP_ShrinkNaive(b *testing.B) {
	q := shrinkingNuMu()
	for _, n := range []int{8, 16, 24} {
		db := workload.LineGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.BottomUp(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT2FP_ShrinkVerify(b *testing.B) {
	q := shrinkingNuMu()
	for _, n := range []int{8, 16, 24} {
		db := workload.LineGraph(n)
		cert, _, err := eval.FindCertificate(context.Background(), q, db)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.VerifyCertificate(context.Background(), q, db, cert); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT2FP_FindCertificate(b *testing.B) {
	db := workload.CycleGraph(6)
	for _, d := range []int{1, 2, 3} {
		q := alternating(d)
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.FindCertificate(context.Background(), q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT2FP_Verify(b *testing.B) {
	db := workload.CycleGraph(6)
	for _, d := range []int{1, 2, 3} {
		q := alternating(d)
		cert, _, err := eval.FindCertificate(context.Background(), q, db)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.VerifyCertificate(context.Background(), q, db, cert); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- T2-ESO: Cor 3.7 ----

// esoQuery quantifies an arity-a relation in a two-variable sentence.
func esoQuery(a int) logic.Formula {
	args1 := make([]logic.Var, a)
	args2 := make([]logic.Var, a)
	for i := range args1 {
		args1[i] = "x"
		args2[i] = "y"
		if i%2 == 1 {
			args1[i] = "y"
			args2[i] = "x"
		}
	}
	return logic.SOExists(
		logic.And(
			logic.Exists(logic.R("S", args1...), "x", "y"),
			logic.Forall(logic.Implies(logic.R("S", args2...), logic.R("E", "x", "y")), "x", "y")),
		logic.RelVar{Name: "S", Arity: a})
}

func BenchmarkT2ESO_NaiveEnum(b *testing.B) {
	db := workload.LineGraph(2)
	for _, a := range []int{2, 3, 4} { // 2^4, 2^8, 2^16 candidate relations
		f := esoQuery(a)
		b.Run(fmt.Sprintf("arity=%d", a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.NaiveHolds(f, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT2ESO_ReducedSAT(b *testing.B) {
	db := workload.LineGraph(2)
	for _, a := range []int{2, 3, 4, 6, 8} {
		f := esoQuery(a)
		b.Run(fmt.Sprintf("arity=%d", a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := eso.Holds(f, db, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- T2-PFP: Thm 3.8 ----

// growPFP converges after ~n stages: it accumulates the E-reachable set.
func growPFP() logic.Query {
	grow := logic.Or(
		logic.R("S", "x"),
		logic.Or(logic.R("P", "x"),
			logic.Exists(logic.And(logic.R("E", "z", "x"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")))
	return logic.MustQuery([]logic.Var{"u"}, logic.Pfp("S", []logic.Var{"x"}, grow, "u"))
}

func BenchmarkT2PFP(b *testing.B) {
	q := growPFP()
	for _, n := range []int{8, 16, 32} {
		db := workload.LineGraph(n)
		for mode, name := range map[eval.CycleMode]string{eval.CycleHash: "hash", eval.CycleBrent: "brent"} {
			opts := &eval.Options{PFPCycle: mode}
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := eval.BottomUpStats(q, db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- T3-FO: Thm 4.1 / Cor 4.3 ----

func BenchmarkT3FO_StackPass(b *testing.B) {
	db := boolexpr.FixedDatabase()
	ev, err := grammar.NewWordEvaluator(db, []logic.Var{"x", "y", "z"})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{4, 16, 64, 256} {
		q := pathQueryB(b, m)
		word, err := grammar.Compile(q.Body)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("len=%d", len(word)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(word); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func pathQueryB(b *testing.B, m int) logic.Query {
	b.Helper()
	// Same φ_m family but over relation P's fixed database: use E absent;
	// reuse the chain over "P"-only db is degenerate, so use E on B₀ with
	// an empty E relation — the shape (work per token) is what is measured.
	f := logic.Formula(logic.R("P", "x"))
	for i := 1; i < m; i++ {
		f = logic.Exists(logic.And(logic.R("P", "z"),
			logic.Exists(logic.And(logic.Equal("x", "z"), f), "x")), "z")
	}
	q, err := logic.NewQuery([]logic.Var{"x", "y", "z"}, logic.And(f, logic.And(logic.Equal("y", "y"), logic.Equal("z", "z"))))
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func BenchmarkT3FO_BottomUpSameWords(b *testing.B) {
	db := boolexpr.FixedDatabase()
	for _, m := range []int{4, 16, 64, 256} {
		q := pathQueryB(b, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.BottomUp(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- T3-ESO: Thm 4.5 ----

func BenchmarkT3ESO(b *testing.B) {
	db := boolexpr.FixedDatabase()
	for _, vars := range []int{8, 16, 24} {
		r := rand.New(rand.NewSource(int64(vars)))
		f := prop.Random3CNF(r, vars, 4*vars)
		sentence := prop.ToESO(f)
		b.Run(fmt.Sprintf("reduction/vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := eso.Holds(sentence, db, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("directSAT/vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prop.Satisfiable(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- T3-PFP: Thm 4.6 ----

func BenchmarkT3PFP(b *testing.B) {
	db := qbf.FixedDatabase()
	for _, l := range []int{2, 4, 6} {
		r := rand.New(rand.NewSource(int64(l)))
		in := qbf.Random(r, l, 3)
		q, err := qbf.ToPFP(in)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("reduction/l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.BottomUp(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("direct/l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := in.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- APP-MU: µ-calculus model checking ----

func BenchmarkAppMuCalculus(b *testing.B) {
	f := mucalc.InfinitelyOften(mucalc.Prop{Name: "p"})
	for _, n := range []int{8, 16, 32} {
		k := workload.RandomKripke(int64(n), n, 3)
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mucalc.Check(k, f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("viaFP2/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mucalc.CheckViaFP2(k, f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("certified/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mucalc.CheckCertified(k, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- OPT: intermediate-result minimization ----

func employeesCQ() *queryopt.CQ {
	return &queryopt.CQ{
		Head: []logic.Var{"e", "se", "ss"},
		Atoms: []queryopt.Atom{
			{Rel: "EMP", Vars: []logic.Var{"e", "d"}},
			{Rel: "MGR", Vars: []logic.Var{"d", "m"}},
			{Rel: "SCY", Vars: []logic.Var{"m", "s"}},
			{Rel: "SAL", Vars: []logic.Var{"e", "se"}},
			{Rel: "SAL2", Vars: []logic.Var{"s", "ss"}},
		},
	}
}

func BenchmarkOptEmployees_Naive(b *testing.B) {
	q := employeesCQ()
	for _, ne := range []int{4, 8, 12} {
		db := workload.Corporate(int64(ne), ne)
		b.Run(fmt.Sprintf("ne=%d", ne), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := queryopt.EvalNaive(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptEmployees_Compiled(b *testing.B) {
	text, err := employeesCQ().ToFO()
	if err != nil {
		b.Fatal(err)
	}
	for _, ne := range []int{4, 8, 12, 48, 192} {
		db := workload.Corporate(int64(ne), ne)
		b.Run(fmt.Sprintf("ne=%d", ne), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Compiled(text, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptVarMin(b *testing.B) {
	db := workload.LineGraph(12)
	for _, m := range []int{2, 3, 4} {
		wide := wideChain(b, m)
		narrow := pathQuery(b, m)
		b.Run(fmt.Sprintf("wideNaive/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Naive(wide, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fo3BottomUp/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.BottomUp(narrow, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptMinimizeWidth prices the m-hop chain written with a variable
// per node: the formula walker reads it by its names (width m+1), the
// compiled engine from its scoped form, whose width MinimizeWidth reads off
// the plan (3).
func BenchmarkOptMinimizeWidth(b *testing.B) {
	db := workload.LineGraph(10)
	for _, m := range []int{3, 5, 7} {
		q := queryopt.ChainCQ(m)
		if _, width, err := MinimizeWidth(q); err != nil || width != 3 {
			b.Fatalf("m=%d: width %d, %v", m, width, err)
		}
		direct, err := q.ToFO()
		if err != nil {
			b.Fatal(err)
		}
		if m <= 5 { // the unminimized width-(m+1) form stops being runnable
			b.Run(fmt.Sprintf("directFO/m=%d", m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eval.BottomUp(direct, db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("minimized/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Compiled(direct, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func wideChain(b *testing.B, m int) logic.Query {
	b.Helper()
	vars := make([]logic.Var, m+1)
	vars[0] = "x"
	vars[m] = "y"
	for i := 1; i < m; i++ {
		vars[i] = logic.Var(fmt.Sprintf("z%d", i))
	}
	conj := make([]logic.Formula, m)
	for i := 0; i < m; i++ {
		conj[i] = logic.R("E", vars[i], vars[i+1])
	}
	return logic.MustQuery([]logic.Var{"x", "y"}, logic.Exists(logic.And(conj...), vars[1:m]...))
}

// ---- KERNELS: word-parallel dense-relation microbenchmarks ----
//
// The quantifier kernels are the inner loop of every bottom-up evaluation:
// one ExistsAxis/ForallAxis per quantifier per subformula visit. The word/
// ref pairs compare the word-parallel fold and broadcast (bitset.Quantify)
// against the bit-level reference oracle; internal/relation's
// BenchmarkAxisKernels has the serving benchmark's own 64³.

func randomDenseBench(sp *relation.Space, seed int64) *relation.Dense {
	r := rand.New(rand.NewSource(seed))
	d := sp.Empty()
	for idx := 0; idx < sp.Size(); idx++ {
		if r.Intn(2) == 0 {
			d.AddIndex(idx)
		}
	}
	return d
}

func BenchmarkDenseExistsAxis(b *testing.B) {
	for _, sh := range []struct{ k, n int }{{3, 16}, {3, 32}, {2, 64}} {
		sp := relation.MustSpace(sh.k, sh.n)
		d := randomDenseBench(sp, 1)
		for axis := 0; axis < sh.k; axis++ {
			b.Run(fmt.Sprintf("word/%d^%d/axis=%d", sh.n, sh.k, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ExistsAxis(axis).Release()
				}
			})
			b.Run(fmt.Sprintf("ref/%d^%d/axis=%d", sh.n, sh.k, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ExistsAxisRef(axis).Release()
				}
			})
		}
	}
}

func BenchmarkDenseForallAxis(b *testing.B) {
	for _, sh := range []struct{ k, n int }{{3, 16}, {3, 32}, {2, 64}} {
		sp := relation.MustSpace(sh.k, sh.n)
		d := randomDenseBench(sp, 2)
		for axis := 0; axis < sh.k; axis++ {
			b.Run(fmt.Sprintf("word/%d^%d/axis=%d", sh.n, sh.k, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ForallAxis(axis).Release()
				}
			})
			b.Run(fmt.Sprintf("ref/%d^%d/axis=%d", sh.n, sh.k, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ForallAxisRef(axis).Release()
				}
			})
		}
	}
}
