// The crossover sweep and the route pins: the benchmark's query families
// (bench/gen.go) over the shapes of its generated databases, as the grid the
// cost coefficients of plan.Density are fitted on and as a table test that
// holds every benchmark family to a route by name.
//
//	go test ./internal/eval -run TestCrossoverSweep -crossover.sweep -v | grep '^{' > CROSSOVER_22.jsonl
//	go test ./internal/eval -run TestCrossoverFit -crossover.fit $PWD/CROSSOVER_22.jsonl -v
//
// (`make crossover`). The sweep runs every cell on the forced dense, the forced
// sparse and the auto route, cross-checks their answer sizes (the answers
// themselves are the differential suites' business), and records the model's
// features beside the measured times; the fit is the weighted least
// squares of time against features, three coefficients a route.
package eval_test

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/mucalc"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/workload"
)

var (
	crossoverSweep = flag.Bool("crossover.sweep", false, "run the crossover grid and print it as JSON Lines")
	crossoverQuick = flag.Bool("crossover.quick", false, "crossover grid at n = 16 and 64 only")
	crossoverFit   = flag.String("crossover.fit", "", "fit the cost coefficients to this sweep file")
)

// familyShapes names the database shapes of the benchmark's graphs by
// out-degree: one directed path, disjoint 16-node paths, and random digraphs
// whose every node has exactly 3, 4, 8 or n/4 distinct successors.
var familyShapes = []string{"line", "forest16", "deg3", "deg4", "deg8", "degq"}

// familyGraph is a database of one of the familyShapes over n elements:
// binary relations E0, E1, E2 (independent draws; E0 of a path shape runs
// through the elements in order, E1 and E2 through permutations of them) and a
// two-member set S0 holding the first and the middle element.
func familyGraph(shape string, n int, seed int64) *database.Database {
	r := rand.New(rand.NewSource(seed))
	b := database.NewBuilder().Relation("S0", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
	}
	b.Add("S0", 0)
	b.Add("S0", n/2)
	deg := map[string]int{"deg3": 3, "deg4": 4, "deg8": 8, "degq": max(n/4, 1)}[shape]
	for i, name := range []string{"E0", "E1", "E2"} {
		b.Relation(name, 2)
		order := r.Perm(n)
		if i == 0 {
			sort.Ints(order)
		}
		for u := 0; u < n; u++ {
			if deg == 0 {
				if u+1 < n && (shape == "line" || (u+1)%16 != 0) {
					b.Add(name, order[u], order[u+1])
				}
				continue
			}
			for _, v := range r.Perm(n - 1)[:min(deg, n-1)] {
				b.Add(name, u, (u+1+v)%n) // never u itself
			}
		}
	}
	return b.MustBuild()
}

// familyQueries are the benchmark's query families (bench/gen.go's spec.text,
// unfiltered) over a familyGraph.
var familyQueries = []struct{ name, text string }{
	{"hop2", "(x, y). exists z. (E0(x, z) & (E1(z, y)))"},
	{"hop3", "(x, y). exists z. (E0(x, z) & (exists x. (E1(z, x) & (E2(x, y)))))"},
	{"hop4", "(x, y). exists z. (E0(x, z) & (exists x. (E1(z, x) & (exists z. (E2(x, z) & (E0(z, y)))))))"},
	{"hop5", "(x, y). exists z. (E0(x, z) & (exists x. (E1(z, x) & (exists z. (E2(x, z) & (exists x. (E0(z, x) & (E1(x, y)))))))))"},
	{"tri", "(x, y). exists z. (E0(x, y) & E1(y, z) & E2(z, x))"},
	{"tri-alt", "(x). exists y. exists z. (E0(x, y) & E1(y, z) & E2(z, x))"},
	{"fo-neg", "(x, y). E0(x, y) & !(exists z. (E1(x, z) & E2(z, y)))"},
	{"fo-neg-alt", "(x, y). (exists z. (E0(x, z) & E1(z, y))) & !E2(x, y)"},
	{"tc", "(x, y). [lfp T(x, y). E0(x, y) | (exists z. (E0(x, z) & T(z, y)))](x, y)"},
	{"tc2", "(x, y). [lfp T(x, y). (E0(x, y) | E1(x, y)) | (exists z. ((E0(x, z) | E1(x, z)) & T(z, y)))](x, y)"},
	{"reach", "(u). [lfp R(x). S0(x) | (exists z. (E0(z, x) & (exists x. (x = z & R(x)))))](u)"},
	{"reach-ifp", "(u). [ifp R(x). S0(x) | (exists z. (E0(z, x) & (exists x. (x = z & R(x)))))](u)"},
	{"gfp-live", "(u). [gfp T(x). !S0(x) & (exists y. (E0(x, y) & (exists x. (x = y & T(x)))))](u)"},
}

func familyPlan(t testing.TB, name string) *plan.Plan {
	t.Helper()
	for _, f := range familyQueries {
		if f.name == name {
			q, err := parser.ParseQuery(f.text)
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatalf("no family %q", name)
	return nil
}

// crossoverCell is one line of the sweep file.
type crossoverCell struct {
	Family string `json:"family"`
	Shape  string `json:"shape"`
	N      int    `json:"n"`

	DenseNS  float64 `json:"dense_ns"`
	SparseNS float64 `json:"sparse_ns,omitempty"` // absent: no sparse route
	AutoNS   float64 `json:"auto_ns"`
	Stages   int64   `json:"stages,omitempty"`
	Answer   int     `json:"answer_tuples"`

	Route       string  `json:"route"`
	RepSwitches int64   `json:"rep_switches,omitempty"`
	Regret      float64 `json:"regret"` // auto over the better forced route
	// The model's view of the cell: what the two times are modelled linear in,
	// the totals under the committed coefficients, the modelled stage count.
	DenseFeat   plan.Cost `json:"dense_feat"`
	SparseFeat  plan.Cost `json:"sparse_feat"`
	DenseCost   float64   `json:"model_dense_ns"`
	SparseCost  float64   `json:"model_sparse_ns,omitempty"`
	ModelStages float64   `json:"model_stages,omitempty"`
}

// medianRun times fn: once if a run takes over half a second, otherwise until
// five runs and 60 ms have passed, and returns the median in nanoseconds.
func medianRun(fn func()) float64 {
	var runs []float64
	for start := time.Now(); ; {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runs = append(runs, float64(d.Nanoseconds()))
		if d > 500*time.Millisecond || (len(runs) >= 5 && time.Since(start) > 60*time.Millisecond) || len(runs) >= 200 {
			break
		}
	}
	sort.Float64s(runs)
	return runs[len(runs)/2]
}

func TestCrossoverSweep(t *testing.T) {
	if !*crossoverSweep {
		t.Skip("run with -crossover.sweep")
	}
	sizes := []int{16, 32, 64, 128, 256}
	if *crossoverQuick {
		sizes = []int{16, 64}
	}
	enc := json.NewEncoder(os.Stdout)
	ctx := context.Background()
	for _, fam := range familyQueries {
		p := familyPlan(t, fam.name)
		for _, shape := range familyShapes {
			for _, n := range sizes {
				db := familyGraph(shape, n, int64(n))
				cell := crossoverCell{Family: fam.name, Shape: shape, N: n}
				// A run is timed to its head value (the enumerator is opened and
				// closed, no tuple decoded): extraction costs the same whatever
				// produced the value, and is not what the model prices.
				timed := func(b eval.Backend) (float64, *eval.Stats) {
					var st *eval.Stats
					runtime.GC() // the previous route's garbage is not this one's to collect
					ns := medianRun(func() {
						en, s, err := eval.EvalPlanEnum(ctx, p, db, &eval.Options{Backend: b})
						if err != nil {
							t.Fatalf("%s/%s/%d on %s: %v", fam.name, shape, n, b, err)
						}
						tuples, _ := en.Count()
						en.Close()
						if st = s; b == eval.BackendDense {
							cell.Answer = tuples
						} else if tuples != cell.Answer {
							t.Fatalf("%s/%s/%d: %s has %d tuples, dense %d", fam.name, shape, n, b, tuples, cell.Answer)
						}
					})
					return ns, st
				}
				var st *eval.Stats
				cell.DenseNS, st = timed(eval.BackendDense)
				cell.Stages = st.FixIterations
				best := cell.DenseNS
				den, route := eval.ExplainRoute(p, db, &eval.Options{})
				cell.Route, cell.DenseFeat, cell.SparseFeat, cell.DenseCost = route, den.DenseFeat, den.SparseFeat, den.DenseCost
				if len(den.Loop) > 0 {
					cell.ModelStages = den.Loop[0].Stages
				}
				if den.SparseOK {
					cell.SparseCost = den.SparseCost
					cell.SparseNS, _ = timed(eval.BackendSparse)
					best = min(best, cell.SparseNS)
				}
				cell.AutoNS, st = timed(eval.BackendAuto)
				cell.RepSwitches, cell.Regret = st.RepSwitches, cell.AutoNS/best
				if err := enc.Encode(cell); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestCrossoverFit refits the coefficients to a sweep file and prints them
// beside the committed ones with the residuals those leave. The fit is, per
// route, the c ≥ 0 minimising Σ (feat·c − measured)² / (feat·c · measured) — a
// cell counts by its relative error, and a model twice too low counts as one
// twice too high — by reweighted least squares, over the cells whose modelled
// stage count is within 1.4x of the observed one: a wrong stage count is the
// estimate's error (and the hand-off's business), not a coefficient's.
func TestCrossoverFit(t *testing.T) {
	if *crossoverFit == "" {
		t.Skip("run with -crossover.fit FILE")
	}
	f, err := os.Open(*crossoverFit)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cells []crossoverCell
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var c crossoverCell
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	staged := func(c crossoverCell) bool {
		return c.Stages == 0 || math.Abs(math.Log(c.ModelStages/float64(c.Stages))) < math.Log(1.4)
	}
	fit := func(name string, feat func(crossoverCell) (plan.Cost, float64), committed plan.Cost) {
		var fitted plan.Cost
		for round := 0; round < 30; round++ {
			var a [3][4]float64 // weighted normal equations, augmented
			for _, c := range cells {
				x, y := feat(c)
				if y == 0 || !staged(c) {
					continue
				}
				w := 1 / (y * y)
				if round > 0 {
					w = 1 / (math.Max(x.NS(fitted), 1) * y)
				}
				for i := range 3 {
					for j := range 3 {
						a[i][j] += w * x[i] * x[j]
					}
					a[i][3] += w * x[i] * y
				}
			}
			for i := range 3 { // Gauss–Jordan; the features are far from collinear
				for j := range 3 {
					if j != i && a[i][i] != 0 {
						k := a[j][i] / a[i][i]
						for l := range 4 {
							a[j][l] -= k * a[i][l]
						}
					}
				}
			}
			for i := range 3 {
				fitted[i] = math.Max(a[i][3]/a[i][i], 0)
			}
		}
		var logs, all []float64
		for _, c := range cells {
			if x, y := feat(c); y != 0 {
				l := math.Abs(math.Log(x.NS(committed) / y))
				if all = append(all, l); staged(c) {
					logs = append(logs, l)
				}
			}
		}
		sort.Float64s(logs)
		sort.Float64s(all)
		t.Logf("%s: fitted %.3g, committed %.3g; |ln(model/measured)| under the committed: median %.2f, p90 %.2f, max %.2f over the %d fitted cells, median %.2f, p90 %.2f, max %.2f over all %d",
			name, fitted, committed, logs[len(logs)/2], logs[len(logs)*9/10], logs[len(logs)-1], len(logs),
			all[len(all)/2], all[len(all)*9/10], all[len(all)-1], len(all))
	}
	fit("dense", func(c crossoverCell) (plan.Cost, float64) { return c.DenseFeat, c.DenseNS }, plan.DenseCoef)
	fit("sparse", func(c crossoverCell) (plan.Cost, float64) { return c.SparseFeat, c.SparseNS }, plan.SparseCoef)
	var worst []string
	for _, c := range cells {
		if c.Regret > 1.5 {
			worst = append(worst, fmt.Sprintf("%s/%s/%d %.1fx (%s)", c.Family, c.Shape, c.N, c.Regret, c.Route))
		}
	}
	t.Logf("auto slower than the better forced route by more than 1.5x on %d of %d cells: %v", len(worst), len(cells), worst)
}

// TestPinnedRoutes holds each benchmark family to a route on each of the
// benchmark's database shapes: an edit to a coefficient or an estimate that
// flips one fails here with the family's name. hop5 stands for the warm-up
// chains of miss-direct, mu-fp2 for bvqbench's Kripke cells.
func TestPinnedRoutes(t *testing.T) {
	kripke, err := workload.RandomKripke(16, 16, 3).ToDatabase("p")
	if err != nil {
		t.Fatal(err)
	}
	body, err := mucalc.ToFP2(mucalc.InfinitelyOften(mucalc.Prop{Name: "p"}))
	if err != nil {
		t.Fatal(err)
	}
	muText := "(x). " + body.String()
	dbs := map[string]*database.Database{
		"forest64": familyGraph("forest16", 64, 1), "deg3-64": familyGraph("deg3", 64, 1),
		"deg4-64": familyGraph("deg4", 64, 1), "line128": familyGraph("line", 128, 1), "kripke16": kripke,
	}
	for _, pin := range pinnedRoutes {
		q, err := parser.ParseQuery(pin.text(muText))
		if err != nil {
			t.Fatalf("%s: %v", pin.family, err)
		}
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatalf("%s: %v", pin.family, err)
		}
		den, route := eval.ExplainRoute(p, dbs[pin.db], nil)
		if route != pin.route {
			t.Errorf("%s on %s: route %s, pinned %s (model: dense %.0f ns, sparse %.0f ns)",
				pin.family, pin.db, route, pin.route, den.DenseCost, den.SparseCost)
		}
	}
}

type routePin struct{ family, db, route string }

func (p routePin) text(mu string) string {
	if p.family == "mu-fp2" {
		return mu
	}
	for _, f := range familyQueries {
		if f.name == p.family {
			return f.text
		}
	}
	return ""
}

var pinnedRoutes = []routePin{
	{"reach", "forest64", "sparse"},
	{"tc", "forest64", "sparse"},
	{"hop2", "forest64", "sparse"},
	{"hop3", "forest64", "sparse"},
	{"hop4", "forest64", "sparse"},
	{"hop5", "forest64", "sparse"},
	{"tri", "forest64", "sparse"},
	{"fo-neg", "forest64", "sparse"},
	{"fo-neg-alt", "forest64", "sparse"},
	{"gfp-live", "forest64", "dense"},
	{"reach", "deg3-64", "dense"},
	{"tc", "deg3-64", "sparse"},
	{"hop2", "deg3-64", "sparse"},
	{"hop3", "deg3-64", "sparse"},
	{"hop4", "deg3-64", "dense"},
	{"hop5", "deg3-64", "dense"},
	{"tri", "deg3-64", "sparse"},
	{"fo-neg", "deg3-64", "dense"},
	{"fo-neg-alt", "deg3-64", "sparse"},
	{"gfp-live", "deg3-64", "dense"},
	{"reach", "deg4-64", "dense"},
	{"tc", "deg4-64", "sparse"},
	{"hop2", "deg4-64", "sparse"},
	{"hop3", "deg4-64", "dense"},
	{"hop4", "deg4-64", "dense"},
	{"hop5", "deg4-64", "dense"},
	{"tri", "deg4-64", "sparse"},
	{"fo-neg", "deg4-64", "dense"},
	{"fo-neg-alt", "deg4-64", "sparse"},
	{"gfp-live", "deg4-64", "dense"},
	{"reach", "line128", "sparse"},
	{"tc", "line128", "sparse"},
	{"hop2", "line128", "sparse"},
	{"hop3", "line128", "sparse"},
	{"hop4", "line128", "sparse"},
	{"hop5", "line128", "sparse"},
	{"tri", "line128", "sparse"},
	{"fo-neg", "line128", "sparse"},
	{"fo-neg-alt", "line128", "sparse"},
	{"gfp-live", "line128", "dense"},
	{"mu-fp2", "kripke16", "dense"},
}

// BenchmarkDenseFamilies prices miss-direct's dense texts as bvqd runs them, on
// the shape of its dense databases (64 nodes, out-degree 4, a source set of
// two) through a warm node store: every run reads an S0 content no earlier run
// read (eval.FreshContents), as a text with a set of its own finds it, so the edge
// atoms (and hop4's unfiltered path) come from the store and every quantifier,
// stage extraction and stage cylinder above them is computed. reach, the same
// closure as reach-pfp on the route the cost model gives an LFP, is the line
// to read reach-pfp against. gfp-two-hop/forest200 is the one family member
// that runs store-less, on the suites' 200-node forest: a GFP over a
// recursion-free two-hop at 200³ bits, where auto converted a sparse frontier
// until PR 28 and now runs dense kernels throughout.
func BenchmarkDenseFamilies(b *testing.B) {
	deg4 := familyGraph("deg4", 64, 1)
	for _, c := range []struct {
		name, text string
		db         *database.Database // through a warm node store, unless the forest
	}{
		{"reach-pfp", "(u). [pfp R(x). S0(x) | (exists z. (E0(z, x) & (exists x. (x = z & R(x)))))](u)", deg4},
		{"gfp-live+src", "(u). [gfp T(x). !S0(x) & (exists y. (E0(x, y) & (exists x. (x = y & T(x)))))](u)", deg4},
		{"hop4+dst", "(x, y). S0(y) & (exists z. (E0(x, z) & (exists x. (E1(z, x) & (exists z. (E2(x, z) & (E0(z, y)))))))) ", deg4},
		{"reach", "(u). [lfp R(x). S0(x) | (exists z. (E0(z, x) & (exists x. (x = z & R(x)))))](u)", deg4},
		{"gfp-two-hop/forest200", "(y). [gfp S(x). (exists z. ((exists y. (E(x, y) & E(y, z))) & (exists x. (x = z & S(x)))))](y)", workload.ForestGraph(200, 10)},
	} {
		q, err := parser.ParseQuery(c.text)
		if err != nil {
			b.Fatal(err)
		}
		p, err := plan.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		opts, db, fresh, next := &eval.Options{}, c.db, func(int) *database.Database { return c.db }, 0
		if db == deg4 {
			opts.Nodes, fresh = eval.NewNodeStore(64<<20), eval.FreshContents(b, db, "S0")
		}
		run := func() *eval.Stats {
			b.StopTimer()
			db := fresh(next)
			next++
			b.StartTimer()
			_, st, _, err := eval.EvalPlan(context.Background(), p, db, opts, nil, false)
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		run()
		run() // the second offer of a value is the one the store keeps
		if st := run(); st.NodesShared == 0 && db == deg4 {
			b.Fatalf("%s: the third run took nothing from the store: %+v", c.name, st)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
