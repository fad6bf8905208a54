package plan

import (
	"testing"

	"repro/internal/logic"
)

func densityTCQuery(t *testing.T) logic.Query {
	t.Helper()
	return logic.MustQuery([]logic.Var{"x", "y"},
		logic.Lfp("T", []logic.Var{"x", "y"},
			logic.Or(logic.R("E", "x", "y"),
				logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("T", "z", "y")), "z")),
			"x", "y"))
}

func TestDensitySupportsAndFeasibility(t *testing.T) {
	p, err := Compile(densityTCQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	cards := func(string) int { return 50 }

	den := p.Density(10000, cards)
	if den.SpaceFeasible {
		t.Fatalf("10000^3 must not be dense-feasible")
	}
	if !den.SparseOK {
		t.Fatalf("TC must be sparse-evaluable: %s", den.Blocker)
	}
	if len(den.DeltaSparse) != 1 || !den.DeltaSparse[0] {
		t.Fatalf("TC binder must admit sparse semi-naive: %+v", den.DeltaSparse)
	}
	// Root is the fix application on axes (x, y): support must be exactly
	// those two axes of the three-variable space.
	axisOf := make(map[logic.Var]int)
	for i, v := range p.Vars {
		axisOf[v] = i
	}
	wantSup := uint64(1)<<uint(axisOf["x"]) | uint64(1)<<uint(axisOf["y"])
	if den.Support[p.Root] != wantSup {
		t.Fatalf("root support %b, want %b", den.Support[p.Root], wantSup)
	}

	small := p.Density(16, cards)
	if !small.SpaceFeasible {
		t.Fatalf("16^3 must be dense-feasible")
	}
	if small.DenseCost <= 0 || small.SparseCost <= 0 || len(small.Loop) != 1 || small.Loop[0].Stages < 2 {
		t.Fatalf("TC at n=16 must be priced on both routes, over a loop of several stages: %+v", small)
	}
}

// TestDensityTinySpacesStayDense: what keeps a four-word space dense is the
// cost formula itself — a node there is a handful of word operations, cheaper
// than any tuple — not a size floor; and the same formula sends the same query
// sparse once the space is large and the data is not.
func TestDensityTinySpacesStayDense(t *testing.T) {
	q := logic.MustQuery([]logic.Var{"x"}, logic.Exists(logic.And(logic.R("E", "x", "y"), logic.R("P", "y")), "y"))
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	card := func(rel string) int { return map[string]int{"E": 48, "P": 4}[rel] }
	if d := p.Density(16, card); d.DenseCost >= d.SparseCost {
		t.Fatalf("n=16, k=2 (four words): dense %.0f ns must undercut sparse %.0f ns", d.DenseCost, d.SparseCost)
	}
	if d := p.Density(2048, card); d.DenseCost <= d.SparseCost {
		t.Fatalf("n=2048, k=2 with 48 edges: sparse %.0f ns must undercut dense %.0f ns", d.SparseCost, d.DenseCost)
	}
}

func TestDensityBlocksGFPAndNegativeBodies(t *testing.T) {
	gfp := logic.MustQuery([]logic.Var{"x"},
		logic.Gfp("S", []logic.Var{"x"},
			logic.Exists(logic.And(logic.R("E", "x", "z"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"), "x"))
	p, err := Compile(gfp)
	if err != nil {
		t.Fatal(err)
	}
	den := p.Density(100, func(string) int { return 10 })
	if den.SparseOK {
		t.Fatalf("GFP must block sparse evaluation")
	}
	if den.Blocker == "" {
		t.Fatalf("blocker must be reported")
	}
}

func TestDensityNegationPolarity(t *testing.T) {
	q := logic.MustQuery([]logic.Var{"x", "y"},
		logic.And(logic.R("E", "x", "y"), logic.Neg(logic.R("F", "x", "y"))))
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	den := p.Density(1000, func(string) int { return 100 })
	if !den.SparseOK {
		t.Fatalf("positive-∧-negative must be sparse-evaluable (antijoin): %s", den.Blocker)
	}
	if den.Neg[p.Root] {
		t.Fatalf("antijoin result must be positively represented")
	}
	foundNeg := false
	for id := range p.Nodes {
		if p.Nodes[id].Op == OpNot && den.Neg[id] {
			foundNeg = true
		}
	}
	if !foundNeg {
		t.Fatalf("negated atom must carry negative polarity")
	}
}

// TestDensityNestedFixpointsPastBudget: five fixpoints, each reading the one
// around it, multiply the sizing pass's stage loops past simBudget, and the
// outermost body has one more after them. That one comes up with no budget
// left and is sized by one stage, not by none — a loop of no stages would
// price the fixpoint at one node on both routes.
func TestDensityNestedFixpointsPastBudget(t *testing.T) {
	reach := func(rel string, from logic.Formula) logic.Formula {
		return logic.Lfp(rel, []logic.Var{"x"}, logic.Or(from, logic.Exists(logic.And(logic.R("E", "x", "y"),
			logic.Exists(logic.And(logic.Equal("x", "y"), logic.R(rel, "x")), "x")), "y")), "x")
	}
	rels := []string{"P", "A", "B", "C", "D", "F"} // each fixpoint starts from the relation before it
	var f logic.Formula
	for i := len(rels) - 1; i > 0; i-- {
		from := logic.Formula(logic.R(rels[i-1], "x"))
		if i < len(rels)-1 {
			from = logic.Or(from, f)
		}
		if i == 1 {
			from = logic.Or(from, reach("G", logic.R("A", "x")))
		}
		f = reach(rels[i], from)
	}
	p, err := Compile(logic.MustQuery([]logic.Var{"x"}, f))
	if err != nil {
		t.Fatal(err)
	}
	den := p.Density(4096, func(rel string) int {
		if rel == "P" {
			return 8
		}
		return 4500
	})
	if den.budget > 0 {
		t.Fatalf("the sizing pass must run out of budget here: %d left", den.budget)
	}
	for b, lc := range den.Loop {
		if lc.Stages < 1 || lc.DenseStage <= 0 || lc.SparseStage <= 0 {
			t.Errorf("binder %d is priced over no stage: %+v", b, lc)
		}
	}
	if !(den.SparseCost > 0 && den.SparseCost < den.DenseCost) {
		t.Errorf("reachability over 4096 nodes of out-degree 1.1 must be priced sparse: dense %g, sparse %g", den.DenseCost, den.SparseCost)
	}
}
