package mucalc

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// mutex builds a toy two-process mutual-exclusion protocol:
// states (p, q) ∈ {idle, try, crit}², with the scheduler interleaving moves
// and a critical section guard. Propositions: c0, c1 (in critical section),
// t0, t1 (trying).
func mutex(t testing.TB) *Kripke {
	t.Helper()
	const (
		idle = 0
		try  = 1
		crit = 2
	)
	id := func(p, q int) int { return p*3 + q }
	k := NewKripke(9)
	step := func(s int) []int {
		switch s {
		case idle:
			return []int{try}
		case try:
			return []int{crit}
		default:
			return []int{idle}
		}
	}
	for p := 0; p < 3; p++ {
		for q := 0; q < 3; q++ {
			// Process 0 moves, unless it would join process 1 in crit.
			for _, p2 := range step(p) {
				if !(p2 == crit && q == crit) {
					if err := k.AddEdge(id(p, q), id(p2, q)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, q2 := range step(q) {
				if !(q2 == crit && p == crit) {
					if err := k.AddEdge(id(p, q), id(p, q2)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if p == crit {
				k.Label(id(p, q), "c0")
			}
			if q == crit {
				k.Label(id(p, q), "c1")
			}
			if p == try {
				k.Label(id(p, q), "t0")
			}
			if q == try {
				k.Label(id(p, q), "t1")
			}
		}
	}
	return k
}

func TestMutexProperties(t *testing.T) {
	k := mutex(t)
	// Safety: AG ¬(c0 ∧ c1) holds at every state except the (unreachable)
	// (crit, crit) state itself, and in particular at the initial state.
	safety := AG(Disj{L: NegProp{"c0"}, R: NegProp{"c1"}})
	set, err := Check(k, safety)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Test(0) {
		t.Fatal("mutual exclusion violated from the initial state")
	}
	if set.Count() != 8 || set.Test(8) {
		t.Fatalf("exactly the (crit,crit) state should be unsafe: %v", set)
	}
	// Possibility: EF c0 from the initial state.
	reach, err := Check(k, EF(Prop{"c0"}))
	if err != nil {
		t.Fatal(err)
	}
	if !reach.Test(0) {
		t.Fatal("critical section unreachable from (idle, idle)")
	}
	// Some path visits c0 infinitely often (the round-robin run).
	io, err := Check(k, InfinitelyOften(Prop{"c0"}))
	if err != nil {
		t.Fatal(err)
	}
	if !io.Test(0) {
		t.Fatal("no run with c0 infinitely often")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(Mu{Var: "X", F: Disj{L: Prop{"p"}, R: VarRef{"X"}}}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(VarRef{"X"}); err == nil {
		t.Fatal("unbound variable accepted")
	}
	if err := Validate(Mu{Var: "X", F: Mu{Var: "X", F: VarRef{"X"}}}); err == nil {
		t.Fatal("double binding accepted")
	}
	if err := Validate(Mu{Var: "", F: Lit{true}}); err == nil {
		t.Fatal("empty variable accepted")
	}
}

func TestAlternationDepth(t *testing.T) {
	p := Prop{"p"}
	cases := []struct {
		f    Formula
		want int
	}{
		{p, 0},
		{EF(p), 1},
		{AG(p), 1},
		{Conj{L: EF(p), R: AG(p)}, 1},
		{InfinitelyOften(p), 2},
		{Nu{Var: "A", F: Mu{Var: "B", F: Nu{Var: "C",
			F: Conj{L: VarRef{"A"}, R: Disj{L: VarRef{"B"}, R: VarRef{"C"}}}}}}, 3},
	}
	for _, c := range cases {
		if got, _ := fp2Depths(t, c.f); got != c.want {
			t.Errorf("AlternationDepth(ToFP2(%s)) = %d, want %d", c.f, got, c.want)
		}
	}
}

// fp2Depths returns the syntactic and the dependent (Emerson–Lei)
// alternation depth of f's FP² translation.
func fp2Depths(t *testing.T, f Formula) (syntactic, dependent int) {
	t.Helper()
	g, err := ToFP2(f)
	if err != nil {
		t.Fatal(err)
	}
	return logic.AlternationDepth(g), logic.DependentAlternationDepth(g)
}

func TestToFP2WidthAndFragment(t *testing.T) {
	for _, f := range []Formula{
		EF(Prop{"p"}),
		AG(Prop{"p"}),
		InfinitelyOften(Prop{"p"}),
		Nu{Var: "X", F: Box{F: Diamond{F: VarRef{"X"}}}},
	} {
		g, err := ToFP2(f)
		if err != nil {
			t.Fatal(err)
		}
		if w := logic.Width(g); w > 2 {
			t.Errorf("translation of %s has width %d > 2", f, w)
		}
		if fr := logic.Classify(g); fr != logic.FragFP {
			t.Errorf("translation of %s is %v, want FP", f, fr)
		}
		if err := logic.Validate(g, nil); err != nil {
			t.Errorf("translation of %s invalid: %v", f, err)
		}
	}
}

func randomKripke(r *rand.Rand, n int) *Kripke {
	k := NewKripke(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if r.Intn(3) == 0 {
				k.AddEdge(s, t)
			}
		}
		if r.Intn(2) == 0 {
			k.Label(s, "p")
		}
		if r.Intn(3) == 0 {
			k.Label(s, "q")
		}
	}
	return k
}

func randomMuFormula(r *rand.Rand, depth int, bound []string) Formula {
	if depth == 0 || r.Intn(5) == 0 {
		switch r.Intn(4) {
		case 0:
			return Prop{"p"}
		case 1:
			return NegProp{"q"}
		case 2:
			if len(bound) > 0 {
				return VarRef{bound[r.Intn(len(bound))]}
			}
			return Lit{true}
		default:
			return Lit{r.Intn(2) == 0}
		}
	}
	switch r.Intn(6) {
	case 0:
		return Conj{L: randomMuFormula(r, depth-1, bound), R: randomMuFormula(r, depth-1, bound)}
	case 1:
		return Disj{L: randomMuFormula(r, depth-1, bound), R: randomMuFormula(r, depth-1, bound)}
	case 2:
		return Diamond{F: randomMuFormula(r, depth-1, bound)}
	case 3:
		return Box{F: randomMuFormula(r, depth-1, bound)}
	case 4:
		v := "X" + string(rune('a'+len(bound)))
		return Mu{Var: v, F: randomMuFormula(r, depth-1, append(bound, v))}
	default:
		v := "X" + string(rune('a'+len(bound)))
		return Nu{Var: v, F: randomMuFormula(r, depth-1, append(bound, v))}
	}
}

func TestCrossValidateDirectVsFP2(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		k := randomKripke(r, 2+r.Intn(4))
		f := randomMuFormula(r, 3, nil)
		direct, err := Check(k, f)
		if err != nil {
			t.Fatalf("Check(%s): %v", f, err)
		}
		viaFP2, err := CheckViaFP2(k, f)
		if err != nil {
			t.Fatalf("CheckViaFP2(%s): %v", f, err)
		}
		if !direct.Equal(viaFP2) {
			t.Fatalf("direct %v != FP² %v on %s", direct, viaFP2, f)
		}
	}
}

func TestCertifiedModelChecking(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		k := randomKripke(r, 2+r.Intn(3))
		f := InfinitelyOften(Prop{"p"})
		direct, err := Check(k, f)
		if err != nil {
			t.Fatal(err)
		}
		states, cert, err := CheckCertified(k, f)
		if err != nil {
			t.Fatalf("CheckCertified: %v", err)
		}
		if !states.Equal(direct) {
			t.Fatalf("certified %v != direct %v", states, direct)
		}
		if len(cert.Chains) == 0 {
			t.Fatal("certificate has no gfp chains for a ν formula")
		}
	}
}

func TestKripkeValidation(t *testing.T) {
	k := NewKripke(2)
	if err := k.AddEdge(0, 5); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := k.Label(9, "p"); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if err := k.Label(0, ""); err == nil {
		t.Fatal("empty proposition accepted")
	}
}

func TestToDatabase(t *testing.T) {
	k := NewKripke(3)
	k.AddEdge(0, 1)
	k.AddEdge(1, 2)
	k.Label(0, "p")
	db, err := k.ToDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 3 {
		t.Fatalf("domain size %d", db.Size())
	}
	e, err := db.Rel("E")
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 2 {
		t.Fatalf("E has %d tuples", e.Len())
	}
	p, err := db.Rel("p")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("p has %d tuples", p.Len())
	}
}

func TestDeadlockConventions(t *testing.T) {
	// One state, no transitions: □φ is vacuously true, ◇φ false.
	k := NewKripke(1)
	box, err := Check(k, Box{F: Lit{false}})
	if err != nil {
		t.Fatal(err)
	}
	if !box.Test(0) {
		t.Fatal("□false should hold at a deadlocked state")
	}
	dia, err := Check(k, Diamond{F: Lit{true}})
	if err != nil {
		t.Fatal(err)
	}
	if dia.Test(0) {
		t.Fatal("◇true should fail at a deadlocked state")
	}
	// The FP² route agrees on deadlock conventions.
	viaFP2, err := CheckViaFP2(k, Box{F: Lit{false}})
	if err != nil {
		t.Fatal(err)
	}
	if !viaFP2.Equal(box) {
		t.Fatal("FP² deadlock convention differs")
	}
}
