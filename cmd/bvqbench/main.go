// Command bvqbench regenerates the measurable content of Tables 1–3 of
// Vardi (PODS 1995) as parameter sweeps: for every table row it runs the
// paper's algorithm and the generic baseline side by side, prints the
// series, and checks that all engines agree on the answers. EXPERIMENTS.md
// records a run of this tool next to the paper's claims.
//
// Usage: bvqbench [-quick] [-json]
//
// With -json the tool skips the prose tables and instead emits one JSON
// record per (workload, engine, size) cell — see Record in json.go — for
// the engine-comparison workloads (tc-lfp, reach-lfp, mu-fp2, pfp-grow).
// The serving stack is measured by bench/, and the streaming route's first
// tuple by internal/eval's BenchmarkTwoHopStream (`make bench-stream`).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/eval/eso"
	"repro/internal/grammar"
	"repro/internal/logic"
	"repro/internal/mucalc"
	"repro/internal/pathsys"
	"repro/internal/plan"
	"repro/internal/prop"
	"repro/internal/qbf"
	"repro/internal/queryopt"
	"repro/internal/relation"
	"repro/internal/workload"
)

var (
	quick    = flag.Bool("quick", false, "smaller sweeps")
	jsonMode = flag.Bool("json", false, "emit machine-readable engine-comparison records (JSON Lines)")
)

// writeErr records the first failed write to stdout. Sweep tables are the
// tool's entire product, so a broken pipe or full disk must turn into exit
// status 1 rather than a silently truncated report.
var writeErr error

func outf(format string, a ...any) {
	if _, err := fmt.Fprintf(os.Stdout, format, a...); err != nil && writeErr == nil {
		writeErr = err
	}
}

func outln(a ...any) {
	if _, err := fmt.Fprintln(os.Stdout, a...); err != nil && writeErr == nil {
		writeErr = err
	}
}

func main() {
	flag.Parse()
	if *jsonMode {
		runJSON(*quick)
		return
	}
	outln("bvqbench — reproduction sweeps for Vardi, PODS 1995 (Tables 1–3)")
	outln()
	t1data()
	t2fo()
	t2foHardness()
	t2fp()
	t2ifp()
	t2eso()
	t2pfp()
	t3fo()
	t3fp()
	t3eso()
	t3pfp()
	appMu()
	appCTL()
	optJoins()
	outln("all sweeps completed; all cross-checks passed")
	if writeErr != nil {
		fmt.Fprintln(os.Stderr, "bvqbench: writing output:", writeErr)
		os.Exit(1)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bvqbench:", err)
		os.Exit(1)
	}
}

func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func header(id, claim string) {
	outf("== %s — %s\n", id, claim)
}

// ---- Table 1: data complexity (fixed queries, growing databases) ----

func t1data() {
	header("T1-DATA", "data complexity: fixed queries of all four languages, growing data")
	sizes := []int{8, 16, 32, 64}
	if *quick {
		sizes = []int{8, 16, 32}
	}
	twoHop := logic.MustQuery([]logic.Var{"x", "y"},
		logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z"))
	reach := logic.MustQuery([]logic.Var{"u"},
		logic.Lfp("S", []logic.Var{"x"},
			logic.Or(logic.R("P", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")), "u"))
	twoColor := logic.SOExists(
		logic.Forall(logic.Implies(logic.R("E", "x", "y"),
			logic.Neg(logic.Iff(logic.R("C", "x"), logic.R("C", "y")))), "x", "y"),
		logic.RelVar{Name: "C", Arity: 1})
	pfpGrow := logic.MustQuery([]logic.Var{"u"},
		logic.Pfp("S", []logic.Var{"x"},
			logic.Or(logic.R("S", "x"), logic.Or(logic.R("P", "x"),
				logic.Exists(logic.And(logic.R("E", "z", "x"),
					logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))), "u"))
	outf("   %-4s %12s %12s %12s %12s\n", "n", "FO³ 2-hop", "FP³ reach", "ESO² 2col", "PFP² grow")
	for _, n := range sizes {
		db := workload.RandomGraph(int64(n), n, 4)
		tFO := timeIt(func() {
			_, err := eval.BottomUp(twoHop, db)
			die(err)
		})
		tFP := timeIt(func() {
			_, err := eval.BottomUp(reach, db)
			die(err)
		})
		tESO := timeIt(func() {
			_, _, _, err := eso.Holds(twoColor, db, nil)
			die(err)
		})
		tPFP := timeIt(func() {
			_, err := eval.BottomUp(pfpGrow, db)
			die(err)
		})
		outf("   %-4d %12s %12s %12s %12s\n", n,
			tFO.Round(time.Microsecond), tFP.Round(time.Microsecond),
			tESO.Round(time.Microsecond), tPFP.Round(time.Microsecond))
	}
	outln("   shape: with the queries fixed, all four languages scale polynomially")
	outln("   in the data (ESO through SAT is NP but benign on these instances) —")
	outln("   the exponential blow-ups of the other sweeps come from growing the")
	outln("   *expression*, never the data. ✓")
	outln()
}

// ---- Table 2, row FO ----

func t2fo() {
	header("T2-FO", "combined complexity: naive PSPACE (exp. time in |e|) vs FOᵏ bottom-up PTIME")
	db := workload.LineGraph(8)
	naiveMax := 4
	buMax := 32
	if *quick {
		naiveMax, buMax = 3, 16
	}
	outf("   %-4s %14s %14s\n", "m", "naive", "bottomup")
	for m := 2; m <= buMax; m *= 2 {
		q, err := queryopt.ChainToFO3(m)
		die(err)
		var tn time.Duration
		naiveRan := m <= naiveMax
		var a1, a2 interface{ Len() int }
		if naiveRan {
			tn = timeIt(func() {
				ans, err := eval.Naive(q, db)
				die(err)
				a1 = ans
			})
		}
		tb := timeIt(func() {
			ans, err := eval.BottomUp(q, db)
			die(err)
			a2 = ans
		})
		ns := "skipped"
		if naiveRan {
			ns = tn.Round(time.Microsecond).String()
			if a1.Len() != a2.Len() {
				die(fmt.Errorf("T2-FO: engines disagree at m=%d", m))
			}
		}
		outf("   %-4d %14s %14s\n", m, ns, tb.Round(time.Microsecond))
	}
	outln("   shape: naive grows exponentially with m; bottom-up ~linearly. ✓")
	outln()
}

// ---- Table 2, row FO hardness (Prop 3.2) ----

func t2foHardness() {
	header("T2-FO-h", "Prop 3.2: Path Systems ≤ FO³; reduction agrees with the direct solver")
	sizes := []int{4, 8, 12, 16}
	if *quick {
		sizes = []int{4, 8}
	}
	outf("   %-4s %8s %12s %12s %8s\n", "n", "|φ_n|", "reduction", "direct", "agree")
	for _, n := range sizes {
		r := rand.New(rand.NewSource(int64(n)))
		agree := true
		var tr, td time.Duration
		var size int
		for trial := 0; trial < 5; trial++ {
			in := pathsys.Random(r, n, 3*n)
			db, err := in.ToDatabase()
			die(err)
			q, err := pathsys.Query(n)
			die(err)
			size = logic.Size(q.Body)
			var got bool
			tr += timeIt(func() {
				ans, err := eval.BottomUp(q, db)
				die(err)
				got = ans.Len() > 0
			})
			var want bool
			td += timeIt(func() { want = in.Solve() })
			if got != want {
				agree = false
			}
		}
		outf("   %-4d %8d %12s %12s %8v\n", n, size,
			(tr / 5).Round(time.Microsecond), (td / 5).Round(time.Microsecond), agree)
		if !agree {
			die(fmt.Errorf("T2-FO-h: reduction disagreed"))
		}
	}
	outln("   shape: reduction size linear in n; answers agree on 100% of instances. ✓")
	outln()
}

// ---- Table 2, row FP (Thm 3.5) ----

func t2fp() {
	header("T2-FP", "Thm 3.5: naive nested n^{kl} iterations vs certificate verification l·nᵏ")
	// νµ formula on the line graph: the outer gfp drops the tail node each
	// stage (Θ(n) stages) and the naive evaluator recomputes the
	// Θ(n)-round inner lfp at every stage (Θ(n²) total); the verifier
	// checks the guessed gfp value with a single body evaluation.
	q := shrinkingNuMu()
	sizes := []int{8, 16, 32}
	if *quick {
		sizes = []int{8, 16, 24}
	}
	outf("   %-4s %12s %12s %12s %12s %10s\n", "n", "naive-iters", "verify-iters", "naive", "verify", "|cert|")
	for _, n := range sizes {
		db := workload.LineGraph(n)
		var naiveIters, verifyIters int64
		var ans1, ans2 interface{ Len() int }
		tn := timeIt(func() {
			a, st, err := eval.BottomUpStats(q, db, nil)
			die(err)
			naiveIters = st.FixIterations
			ans1 = a
		})
		cert, _, err := eval.FindCertificate(context.Background(), q, db)
		die(err)
		tv := timeIt(func() {
			res, err := eval.VerifyCertificate(context.Background(), q, db, cert)
			die(err)
			verifyIters = res.Stats.FixIterations
			ans2 = res.Answer
		})
		if ans1.Len() != ans2.Len() {
			die(fmt.Errorf("T2-FP: verified answer differs at n=%d", n))
		}
		_, certElems, certTuples := cert.Size()
		outf("   %-4d %12d %12d %12s %12s %10s\n", n, naiveIters, verifyIters,
			tn.Round(time.Microsecond), tv.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", certElems, certTuples))
	}
	outln("   shape: naive iterations grow quadratically in n (the n^{kl} effect at")
	outln("   alternation depth 2); the verifier replays the guessed certificate in a")
	outln("   constant number of body evaluations here — l·nᵏ in general. The witness")
	outln("   (|cert| = chain sets/tuples) is polynomial — here the guessed gfp is ∅,")
	outln("   the smallest possible post-fixpoint. ✓")
	outln()
}

// shrinkingNuMu is νS.(∃succ ∈ S ∧ µT.((P∧S) ∨ ∃pred ∈ T)) applied at x.
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

// ---- §3.2 addendum: IFPᵏ ----

func t2ifp() {
	header("T2-IFP", "§3.2: IFPᵏ — FP-equivalent in power, but Thm 3.5 does not apply")
	// Inflationary reachability equals the lfp version tuple for tuple; the
	// certificate prover must refuse the ifp form (its best known bound is
	// the PSPACE bound inherited from PFPᵏ).
	body := logic.Or(
		logic.R("P", "x"),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))
	lfpQ := logic.MustQuery([]logic.Var{"u"}, logic.Lfp("S", []logic.Var{"x"}, body, "u"))
	ifpQ := logic.MustQuery([]logic.Var{"u"}, logic.Ifp("S", []logic.Var{"x"}, body, "u"))
	sizes := []int{8, 16, 32}
	if *quick {
		sizes = []int{8, 16}
	}
	outf("   %-4s %12s %12s %8s\n", "n", "lfp", "ifp", "agree")
	for _, n := range sizes {
		db := workload.LineGraph(n)
		var a1, a2 interface{ Len() int }
		tl := timeIt(func() {
			a, err := eval.BottomUp(lfpQ, db)
			die(err)
			a1 = a
		})
		ti := timeIt(func() {
			a, err := eval.BottomUp(ifpQ, db)
			die(err)
			a2 = a
		})
		agree := a1.Len() == a2.Len()
		if !agree {
			die(fmt.Errorf("T2-IFP: ifp and lfp disagree at n=%d", n))
		}
		outf("   %-4d %12s %12s %8v\n", n,
			tl.Round(time.Microsecond), ti.Round(time.Microsecond), agree)
	}
	if _, _, err := eval.FindCertificate(context.Background(), ifpQ, workload.LineGraph(8)); err == nil {
		die(fmt.Errorf("T2-IFP: certificate prover accepted an ifp query"))
	}
	outln("   shape: ifp tracks lfp on positive bodies; the Theorem 3.5 prover")
	outln("   correctly refuses IFP (the paper's open gap, end of §3.2). ✓")
	outln()
}

// ---- Table 2, row ESO (Lemma 3.6 / Cor 3.7) ----

func t2eso() {
	header("T2-ESO", "Cor 3.7: naive enumeration 2^(n^a) vs Lemma 3.6 reduction + grounding + SAT")
	db := workload.LineGraph(2)
	arities := []int{2, 3, 4, 6, 8}
	if *quick {
		arities = []int{2, 3, 4}
	}
	outf("   %-6s %12s %12s %10s %10s\n", "arity", "naive", "reduced+SAT", "asserts", "cnfvars")
	for _, a := range arities {
		f := esoQuery(a)
		naiveRan := a <= 4
		var tn time.Duration
		var naiveAns bool
		if naiveRan {
			tn = timeIt(func() {
				h, err := eval.NaiveHolds(f, db)
				die(err)
				naiveAns = h
			})
		}
		var st *eso.Stats
		var redAns bool
		tr := timeIt(func() {
			h, _, s, err := eso.Holds(f, db, nil)
			die(err)
			st = s
			redAns = h
		})
		ns := "skipped"
		if naiveRan {
			ns = tn.Round(time.Microsecond).String()
			if naiveAns != redAns {
				die(fmt.Errorf("T2-ESO: engines disagree at arity %d", a))
			}
		}
		outf("   %-6d %12s %12s %10d %10d\n", a, ns,
			tr.Round(time.Microsecond), st.Assertions, st.CNFVars)
	}
	outln("   shape: naive explodes by arity 4 (2^16 candidates); the reduction stays")
	outln("   polynomial and reaches arities the naive algorithm cannot. ✓")
	outln()
}

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

// ---- Table 2, row PFP (Thm 3.8) ----

func t2pfp() {
	header("T2-PFP", "Thm 3.8: PSPACE evaluation; hash vs Brent (constant-memory) cycle detection")
	grow := logic.Or(
		logic.R("S", "x"),
		logic.Or(logic.R("P", "x"),
			logic.Exists(logic.And(logic.R("E", "z", "x"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z")))
	q := logic.MustQuery([]logic.Var{"u"}, logic.Pfp("S", []logic.Var{"x"}, grow, "u"))
	sizes := []int{8, 16, 32}
	if *quick {
		sizes = []int{8, 16}
	}
	outf("   %-4s %12s %12s %12s %12s\n", "n", "hash", "hash-iters", "brent", "brent-iters")
	for _, n := range sizes {
		db := workload.LineGraph(n)
		var hi, bi int64
		var a1, a2 interface{ Len() int }
		th := timeIt(func() {
			a, st, err := eval.BottomUpStats(q, db, &eval.Options{PFPCycle: eval.CycleHash})
			die(err)
			hi = st.FixIterations
			a1 = a
		})
		tb := timeIt(func() {
			a, st, err := eval.BottomUpStats(q, db, &eval.Options{PFPCycle: eval.CycleBrent})
			die(err)
			bi = st.FixIterations
			a2 = a
		})
		if a1.Len() != a2.Len() {
			die(fmt.Errorf("T2-PFP: cycle modes disagree at n=%d", n))
		}
		outf("   %-4d %12s %12d %12s %12d\n", n,
			th.Round(time.Microsecond), hi, tb.Round(time.Microsecond), bi)
	}
	// The binary counter: a width-2 PFP run of length 2ⁿ over an ordered
	// n-element domain — the canonical witness that PFP runs are
	// exponentially long in the data.
	counter := counterQuery()
	counterSizes := []int{6, 8, 10, 12}
	if *quick {
		counterSizes = []int{6, 8, 10}
	}
	outf("   binary counter (divergent, limit ∅):\n")
	outf("   %-4s %12s %12s\n", "n", "stages", "time")
	for _, n := range counterSizes {
		b := database.NewBuilder()
		for i := 0; i < n; i++ {
			b.Domain(i)
		}
		base, err := b.Build()
		die(err)
		odb, err := base.WithOrder()
		die(err)
		var stages int64
		tc := timeIt(func() {
			ans, st, err := eval.BottomUpStats(counter, odb, nil)
			die(err)
			if ans.Len() != 0 {
				die(fmt.Errorf("T2-PFP: counter limit not empty"))
			}
			stages = st.FixIterations
		})
		outf("   %-4d %12d %12s\n", n, stages, tc.Round(time.Microsecond))
	}
	outln("   shape: both modes agree; Brent pays ~3× stages for O(1) live")
	outln("   relations; the counter's stage count doubles with each added element")
	outln("   (2ⁿ — exponentially long runs at polynomial space). ✓")
	outln()
}

// counterQuery is the width-2 binary-increment PFP query (see
// internal/eval/counter_test.go for the derivation).
func counterQuery() logic.Query {
	body := logic.Or(
		logic.And(
			logic.Neg(logic.R("S", "x")),
			logic.Forall(logic.Implies(logic.R(database.OrderLess, "y", "x"),
				logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x")), "y")),
		logic.And(
			logic.R("S", "x"),
			logic.Exists(logic.And(logic.R(database.OrderLess, "y", "x"),
				logic.Neg(logic.Exists(logic.And(logic.Equal("x", "y"), logic.R("S", "x")), "x"))), "y")))
	return logic.MustQuery([]logic.Var{"x"}, logic.Pfp("S", []logic.Var{"x"}, body, "x"))
}

// ---- Table 3, row FO (Thm 4.1 / Cor 4.3 / Thm 4.4) ----

func t3fo() {
	header("T3-FO", "expression complexity at fixed B: one-pass stack evaluation, linear in |e|")
	db := boolexpr.FixedDatabase()
	ev, err := grammar.NewWordEvaluator(db, []logic.Var{"x"})
	die(err)
	sizes := []int{8, 32, 128, 512}
	if *quick {
		sizes = []int{8, 32, 128}
	}
	r := rand.New(rand.NewSource(99))
	// Warm up the evaluator so the first row isn't skewed by one-time costs.
	if warm, err := grammar.Compile(logic.Exists(logic.R("P", "x"), "x")); err == nil {
		_, _ = ev.Eval(warm)
	}
	outf("   %-8s %12s %14s\n", "|word|", "stack-pass", "ns/token")
	for _, depthTarget := range sizes {
		// Build a BFVP instance of roughly the target size and compile it.
		var f prop.Formula = prop.Const(true)
		for prop.Size(f) < depthTarget {
			f = prop.And{L: f, R: prop.Or{L: prop.Const(r.Intn(2) == 0), R: prop.Not{F: prop.Const(r.Intn(2) == 0)}}}
		}
		fo, err := boolexpr.ToFO(f)
		die(err)
		word, err := grammar.Compile(fo)
		die(err)
		want, err := boolexpr.Eval(f)
		die(err)
		var got bool
		reps := 50
		t := timeIt(func() {
			for i := 0; i < reps; i++ {
				d, err := ev.Eval(word)
				die(err)
				got = !d.IsEmpty()
			}
		}) / time.Duration(reps)
		if got != want {
			die(fmt.Errorf("T3-FO: stack pass computed %v, want %v", got, want))
		}
		outf("   %-8d %12s %14.1f\n", len(word), t.Round(time.Microsecond),
			float64(t.Nanoseconds())/float64(len(word)))
	}
	outln("   shape: ns/token is flat — evaluation is linear in the expression,")
	outln("   independent of nesting (ALOGTIME's laptop-scale shadow). Thm 4.4's BFVP")
	outln("   instances embed and evaluate correctly. ✓")
	outln()
}

// ---- Table 3, row FP ----

func t3fp() {
	header("T3-FP", "expression complexity of FPᵏ: fixed B, growing alternating formula")
	// Fixed 6-node database; the alternating formula family grows with d.
	// The naive column is the n^{kl} regime in the *expression* parameter;
	// verification stays flat (the certificate does the guessing).
	db := workload.LineGraph(6)
	depths := []int{1, 2, 3} // depth 4 puts the naive column past minutes
	if *quick {
		depths = []int{1, 2}
	}
	outf("   %-6s %8s %12s %12s\n", "depth", "|e|", "naive", "verify")
	for _, d := range depths {
		q := deepShrinking(d)
		var tn, tv time.Duration
		var ans1, ans2 interface{ Len() int }
		tn = timeIt(func() {
			a, _, err := eval.BottomUpStats(q, db, nil)
			die(err)
			ans1 = a
		})
		cert, _, err := eval.FindCertificate(context.Background(), q, db)
		die(err)
		tv = timeIt(func() {
			res, err := eval.VerifyCertificate(context.Background(), q, db, cert)
			die(err)
			ans2 = res.Answer
		})
		if ans1.Len() != ans2.Len() {
			die(fmt.Errorf("T3-FP: verified answer differs at depth %d", d))
		}
		outf("   %-6d %8d %12s %12s\n", d, logic.Size(q.Body),
			tn.Round(time.Microsecond), tv.Round(time.Microsecond))
	}
	outln("   shape: over the fixed database, naive cost grows rapidly with the")
	outln("   alternation depth of the expression while verification stays flat —")
	outln("   the NP∩co-NP expression-complexity row of Table 3. ✓")
	outln()
}

// deepShrinking nests the shrinking νµ pattern d times: ν over µ over ν …,
// every level dependent on the one above, so the alternation is real.
func deepShrinking(d int) logic.Query {
	hasSuccIn := func(rel string) logic.Formula {
		return logic.Exists(logic.And(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.Equal("x", "y"), logic.R(rel, "x")), "x")), "y")
	}
	predStep := func(rel string) logic.Formula {
		return logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R(rel, "x")), "x")), "z")
	}
	// Innermost: µT₀. (P ∧ outer) ∨ pred-step(T₀), where outer is the name
	// of the enclosing ν — the dependency that makes the alternation real.
	// Odd levels are ν (passing their own name down), even levels µ
	// (depending on the ν directly above them).
	var build func(level int, outer string) logic.Formula
	build = func(level int, outer string) logic.Formula {
		if level == 0 {
			return logic.Lfp("T0", []logic.Var{"x"},
				logic.Or(logic.And(logic.R("P", "x"), logic.R(outer, "x")), predStep("T0")), "x")
		}
		if level%2 == 1 {
			rel := fmt.Sprintf("S%d", level)
			return logic.Gfp(rel, []logic.Var{"x"},
				logic.And(hasSuccIn(rel), build(level-1, rel)), "x")
		}
		rel := fmt.Sprintf("T%d", level)
		return logic.Lfp(rel, []logic.Var{"x"},
			logic.Or(logic.And(logic.R("P", "x"), logic.R(outer, "x")),
				logic.Or(predStep(rel), build(level-1, outer))), "x")
	}
	// d counts ν levels: build to 2d−1 so the outermost is a ν.
	return logic.MustQuery([]logic.Var{"x"}, build(2*d-1, ""))
}

// ---- Table 3, row ESO (Thm 4.5) ----

func t3eso() {
	header("T3-ESO", "Thm 4.5: SAT reduces to ESO⁰ over a fixed B; cost tracks the SAT solver")
	db := boolexpr.FixedDatabase()
	sizes := []int{8, 16, 24}
	if *quick {
		sizes = []int{8, 16}
	}
	outf("   %-6s %12s %12s %8s\n", "vars", "reduction", "directSAT", "agree")
	for _, vars := range sizes {
		r := rand.New(rand.NewSource(int64(vars)))
		agree := true
		var tr, td time.Duration
		for trial := 0; trial < 5; trial++ {
			f := prop.Random3CNF(r, vars, 4*vars)
			sentence := prop.ToESO(f)
			var got, want bool
			tr += timeIt(func() {
				h, _, _, err := eso.Holds(sentence, db, nil)
				die(err)
				got = h
			})
			td += timeIt(func() {
				h, err := prop.Satisfiable(f)
				die(err)
				want = h
			})
			if got != want {
				agree = false
			}
		}
		outf("   %-6d %12s %12s %8v\n", vars,
			(tr / 5).Round(time.Microsecond), (td / 5).Round(time.Microsecond), agree)
		if !agree {
			die(fmt.Errorf("T3-ESO: reduction disagreed"))
		}
	}
	outln("   shape: the reduction is linear-size and its cost tracks SAT. ✓")
	outln()
}

// ---- Table 3, row PFP (Thm 4.6) ----

func t3pfp() {
	header("T3-PFP", "Thm 4.6: QBF reduces to PFP² over B₀ = ({0,1}; P={0})")
	db := qbf.FixedDatabase()
	sizes := []int{2, 4, 6, 8}
	if *quick {
		sizes = []int{2, 4, 6}
	}
	outf("   %-4s %8s %12s %12s %8s\n", "l", "|query|", "reduction", "direct", "agree")
	for _, l := range sizes {
		r := rand.New(rand.NewSource(int64(l)))
		agree := true
		var tr, td time.Duration
		var size int
		for trial := 0; trial < 3; trial++ {
			in := qbf.Random(r, l, 3)
			q, err := qbf.ToPFP(in)
			die(err)
			size = logic.Size(q.Body)
			var got, want bool
			tr += timeIt(func() {
				ans, err := eval.BottomUp(q, db)
				die(err)
				got = ans.Len() > 0
			})
			td += timeIt(func() {
				w, err := in.Solve()
				die(err)
				want = w
			})
			if got != want {
				agree = false
			}
		}
		outf("   %-4d %8d %12s %12s %8v\n", l, size,
			(tr / 3).Round(time.Microsecond), (td / 3).Round(time.Microsecond), agree)
		if !agree {
			die(fmt.Errorf("T3-PFP: reduction disagreed"))
		}
	}
	outln("   shape: query size linear in l, evaluation exponential in l over the")
	outln("   fixed two-element database (PSPACE-hardness in action). ✓")
	outln()
}

// ---- Application: µ-calculus (§1) ----

func appMu() {
	header("APP-MU", "µ-calculus ⊂ FP²: model checking direct / via FP² / certified")
	f := mucalc.InfinitelyOften(mucalc.Prop{Name: "p"})
	sizes := []int{8, 16, 32}
	if *quick {
		sizes = []int{8, 16}
	}
	outf("   %-4s %12s %12s %12s %8s\n", "n", "direct", "viaFP2", "certified", "agree")
	for _, n := range sizes {
		k := workload.RandomKripke(int64(n), n, 3)
		var s1, s2, s3 interface{ Count() int }
		t1 := timeIt(func() {
			s, err := mucalc.Check(k, f)
			die(err)
			s1 = s
		})
		t2 := timeIt(func() {
			s, err := mucalc.CheckViaFP2(k, f)
			die(err)
			s2 = s
		})
		t3 := timeIt(func() {
			s, _, err := mucalc.CheckCertified(k, f)
			die(err)
			s3 = s
		})
		agree := s1.Count() == s2.Count() && s1.Count() == s3.Count()
		outf("   %-4d %12s %12s %12s %8v\n", n,
			t1.Round(time.Microsecond), t2.Round(time.Microsecond), t3.Round(time.Microsecond), agree)
		if !agree {
			die(fmt.Errorf("APP-MU: model checkers disagree at n=%d", n))
		}
	}
	outln("   shape: the alternation-depth-2 property checks identically through all")
	outln("   three routes; the FP² translation has width 2. ✓")
	outln()
}

// ---- Application: CTL (extension over [CES86]) ----

func appCTL() {
	header("APP-CTL", "CTL ⊂ alternation-free Lµ ⊂ FP²: three checkers agree; Monotone admits it")
	spec := mucalc.AU{
		L: mucalc.CTLLit{Value: true},
		R: mucalc.CTLOr{L: mucalc.CTLProp{Name: "p"}, R: mucalc.AG_{F: mucalc.CTLProp{Name: "q"}}},
	}
	sizes := []int{8, 16, 32}
	if *quick {
		sizes = []int{8, 16}
	}
	outf("   %-4s %12s %12s %12s %8s\n", "n", "CTL direct", "µ-calculus", "FP²", "agree")
	for _, n := range sizes {
		k := workload.RandomKripke(int64(n)+7, n, 3)
		var s1, s2, s3 interface{ Count() int }
		t1 := timeIt(func() {
			s, err := mucalc.CheckCTL(k, spec)
			die(err)
			s1 = s
		})
		mu, err := mucalc.CTLToMu(spec)
		die(err)
		t2 := timeIt(func() {
			s, err := mucalc.Check(k, mu)
			die(err)
			s2 = s
		})
		t3 := timeIt(func() {
			s, err := mucalc.CheckViaFP2(k, mu)
			die(err)
			s3 = s
		})
		agree := s1.Count() == s2.Count() && s1.Count() == s3.Count()
		if !agree {
			die(fmt.Errorf("APP-CTL: checkers disagree at n=%d", n))
		}
		outf("   %-4d %12s %12s %12s %8v\n", n,
			t1.Round(time.Microsecond), t2.Round(time.Microsecond), t3.Round(time.Microsecond), agree)
	}
	if d := logic.DependentAlternationDepth(mustFP2(spec)); d > 1 {
		die(fmt.Errorf("APP-CTL: translation not dependently alternation-free"))
	}
	outln("   shape: the CTL property checks identically through direct semantics,")
	outln("   its µ-calculus translation, and FP²; its dependent alternation depth")
	outln("   is 1, so the warm-start Monotone evaluator applies. ✓")
	outln()
}

func mustFP2(spec mucalc.CTL) logic.Formula {
	mu, err := mucalc.CTLToMu(spec)
	die(err)
	f, err := mucalc.ToFP2(mu)
	die(err)
	return f
}

// ---- Optimization: intermediate-result minimization (§1/§5) ----

func optJoins() {
	header("OPT", "§1 employees query: 10-ary naive product vs the compiled engine's arity-≤4 plan")
	q := &queryopt.CQ{
		Head: []logic.Var{"e", "se", "ss"},
		Atoms: []queryopt.Atom{
			{Rel: "EMP", Vars: []logic.Var{"e", "d"}},
			{Rel: "MGR", Vars: []logic.Var{"d", "m"}},
			{Rel: "SCY", Vars: []logic.Var{"m", "s"}},
			{Rel: "SAL", Vars: []logic.Var{"e", "se"}},
			{Rel: "SAL2", Vars: []logic.Var{"s", "ss"}},
		},
	}
	// compiled runs the text as written; plan.Compile lowers it from its
	// scoped form (§5), whose width the plan reads.
	direct, err := q.ToFO()
	die(err)
	p, err := plan.Compile(direct)
	die(err)
	width := len(p.Vars)
	sizes := []int{4, 8, 16}
	if *quick {
		sizes = []int{4, 8}
	}
	outf("   %-4s %12s %10s %12s %10s %8s\n", "ne", "naive", "max-arity", "compiled", "max-arity", "narrowed")
	for _, ne := range sizes {
		db := workload.Corporate(int64(ne), ne)
		var naive, comp *relation.Set
		var nst *queryopt.Stats
		var cst *eval.Stats
		tn := timeIt(func() {
			naive, nst, err = queryopt.EvalNaive(q, db)
			die(err)
		})
		tc := timeIt(func() {
			comp, cst, err = eval.CompiledStats(direct, db, nil)
			die(err)
		})
		if !naive.Equal(comp) {
			die(fmt.Errorf("OPT: naive and compiled answers differ at ne=%d", ne))
		}
		if cst.AcyclicFastPath != 1 {
			die(fmt.Errorf("OPT: compiled did not run the scoped plan at ne=%d", ne))
		}
		outf("   %-4d %12s %10d %12s %10d %8d\n", ne,
			tn.Round(time.Microsecond), nst.MaxIntermediateArity,
			tc.Round(time.Microsecond), cst.MaxIntermediateArity, cst.AcyclicFastPath)
	}
	outf("   variable minimization: direct FO width %d → minimized width %d; answers equal. ✓\n", direct.Width(), width)
	outln("   shape: naive time explodes with the 10-ary product; the compiled")
	outln("   engine stays at arity ≤ 4 with near-linear cost. ✓")
	outln()
}
