package sat

import (
	"math/rand"
	"testing"
)

// bruteForce decides satisfiability by enumeration (n ≤ 20).
func bruteForce(f *CNF) bool {
	n := f.NumVars
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<(v-1)) != 0
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

func TestSolveTrivial(t *testing.T) {
	f := NewCNF(1)
	f.MustAdd(1)
	r, err := Solve(f)
	if err != nil {
		t.Fatal(err)
	}
	if !r.SAT || !r.Model[1] {
		t.Fatalf("x1 alone: %+v", r)
	}

	g := NewCNF(1)
	g.MustAdd(1)
	g.MustAdd(-1)
	r, err = Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.SAT {
		t.Fatal("x1 ∧ ¬x1 reported SAT")
	}
}

func TestEmptyFormulaIsSAT(t *testing.T) {
	r, err := Solve(NewCNF(3))
	if err != nil {
		t.Fatal(err)
	}
	if !r.SAT {
		t.Fatal("empty formula should be SAT")
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	f := NewCNF(2)
	f.MustAdd(1, 2)
	f.Clauses = append(f.Clauses, Clause{}) // inject an empty clause
	r, err := Solve(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.SAT {
		t.Fatal("formula with empty clause reported SAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	f := NewCNF(2)
	f.MustAdd(1, -1, 2)
	if len(f.Clauses) != 0 {
		t.Fatalf("tautology kept: %v", f.Clauses)
	}
}

func TestAddValidation(t *testing.T) {
	f := NewCNF(2)
	if err := f.Add(0); err == nil {
		t.Fatal("zero literal accepted")
	}
	if err := f.Add(3); err == nil {
		t.Fatal("out-of-range literal accepted")
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x1, x1→x2, x2→x3, …: forces all true.
	n := 50
	f := NewCNF(n)
	f.MustAdd(1)
	for i := 1; i < n; i++ {
		f.MustAdd(Lit(-i), Lit(i+1))
	}
	r, err := Solve(f)
	if err != nil {
		t.Fatal(err)
	}
	if !r.SAT {
		t.Fatal("implication chain UNSAT")
	}
	for v := 1; v <= n; v++ {
		if !r.Model[v] {
			t.Fatalf("x%d false in model", v)
		}
	}
}

// pigeonhole builds PHP(p, h): p pigeons into h holes, each pigeon somewhere,
// no two pigeons share a hole. UNSAT iff p > h.
func pigeonhole(p, h int) *CNF {
	f := NewCNF(p * h)
	v := func(pi, hi int) Lit { return Lit(pi*h + hi + 1) }
	for pi := 0; pi < p; pi++ {
		row := make([]Lit, h)
		for hi := 0; hi < h; hi++ {
			row[hi] = v(pi, hi)
		}
		f.MustAdd(row...)
	}
	for hi := 0; hi < h; hi++ {
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				f.MustAdd(v(a, hi).Neg(), v(b, hi).Neg())
			}
		}
	}
	return f
}

func TestPigeonhole(t *testing.T) {
	r, err := Solve(pigeonhole(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !r.SAT {
		t.Fatal("PHP(4,4) should be SAT")
	}
	r, err = Solve(pigeonhole(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r.SAT {
		t.Fatal("PHP(5,4) should be UNSAT")
	}
	if r.Conflicts == 0 {
		t.Fatal("PHP(5,4) solved without conflicts (suspicious)")
	}
}

func TestModelSatisfiesFormula(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(10)
		f := NewCNF(n)
		clauses := 2 + r.Intn(4*n)
		for i := 0; i < clauses; i++ {
			width := 1 + r.Intn(3)
			lits := make([]Lit, width)
			for j := range lits {
				l := Lit(1 + r.Intn(n))
				if r.Intn(2) == 0 {
					l = l.Neg()
				}
				lits[j] = l
			}
			f.MustAdd(lits...)
		}
		res, err := Solve(f)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(f)
		if res.SAT != want {
			t.Fatalf("Solve=%v bruteForce=%v on\n%s", res.SAT, want, f)
		}
		if res.SAT && !f.Eval(res.Model) {
			t.Fatalf("model does not satisfy formula:\n%s", f)
		}
	}
}

func TestLubySequence(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestCircuitEvalAndTseitin(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		c := NewCircuit()
		inputs := make([]Gate, 3+r.Intn(3))
		for i := range inputs {
			inputs[i] = c.Input()
		}
		var build func(d int) Gate
		build = func(d int) Gate {
			if d == 0 || r.Intn(4) == 0 {
				switch r.Intn(3) {
				case 0:
					return inputs[r.Intn(len(inputs))]
				case 1:
					return c.Const(r.Intn(2) == 0)
				default:
					return c.Not(inputs[r.Intn(len(inputs))])
				}
			}
			switch r.Intn(4) {
			case 0:
				return c.And(build(d-1), build(d-1))
			case 1:
				return c.Or(build(d-1), build(d-1), build(d-1))
			case 2:
				return c.Not(build(d - 1))
			default:
				return c.Iff(build(d-1), build(d-1))
			}
		}
		root := build(3)
		cnf, err := c.ToCNF(root)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(cnf)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force the circuit.
		n := len(inputs)
		circuitSAT := false
		assign := make([]bool, n+1)
		for mask := 0; mask < 1<<n; mask++ {
			for v := 1; v <= n; v++ {
				assign[v] = mask&(1<<(v-1)) != 0
			}
			v, err := c.Eval(root, assign)
			if err != nil {
				t.Fatal(err)
			}
			if v {
				circuitSAT = true
				break
			}
		}
		if res.SAT != circuitSAT {
			t.Fatalf("Tseitin SAT=%v, circuit SAT=%v", res.SAT, circuitSAT)
		}
		if res.SAT {
			// The model's input part must satisfy the circuit.
			v, err := c.Eval(root, res.Model[:n+1])
			if err != nil {
				t.Fatal(err)
			}
			if !v {
				t.Fatal("Tseitin model does not satisfy circuit inputs")
			}
		}
	}
}

func TestCircuitHelpers(t *testing.T) {
	c := NewCircuit()
	a, b := c.Input(), c.Input()
	if got := c.And(); got < 0 {
		t.Fatal("empty And")
	}
	one := c.And(a)
	if one != a {
		t.Fatal("unary And should collapse")
	}
	imp := c.Implies(a, b)
	for mask := 0; mask < 4; mask++ {
		in := []bool{false, mask&1 != 0, mask&2 != 0}
		v, err := c.Eval(imp, in)
		if err != nil {
			t.Fatal(err)
		}
		if v != (!in[1] || in[2]) {
			t.Fatalf("Implies wrong at %v", in)
		}
	}
}

func TestToCNFRootOutOfRange(t *testing.T) {
	c := NewCircuit()
	c.Input()
	if _, err := c.ToCNF(Gate(99)); err == nil {
		t.Fatal("bad root accepted")
	}
}
