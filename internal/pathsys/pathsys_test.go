package pathsys

import (
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/logic"
)

// chain is the deepest derivation: element i+1 derivable from (i, i), source
// {0}, target {n−1}. Solvable, and needs n rounds.
func chain(n int) *Instance {
	in := &Instance{N: n, S: []int{0}, T: []int{n - 1}}
	for i := 0; i+1 < n; i++ {
		in.Q = append(in.Q, [3]int{i + 1, i, i})
	}
	return in
}

func TestReachableChain(t *testing.T) {
	in := chain(6)
	reach := in.Reachable()
	for v := 0; v < 6; v++ {
		if !reach[v] {
			t.Fatalf("chain element %d not reachable", v)
		}
	}
	if !in.Solve() {
		t.Fatal("chain instance should be solvable")
	}
}

func TestReachableNeedsBothPremises(t *testing.T) {
	// 2 derivable from (0, 1), but 1 is not a source: unreachable.
	in := &Instance{N: 3, S: []int{0}, T: []int{2}, Q: [][3]int{{2, 0, 1}}}
	if in.Solve() {
		t.Fatal("derivation with missing premise succeeded")
	}
	in.S = append(in.S, 1)
	if !in.Solve() {
		t.Fatal("derivation with both premises failed")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Instance{
		{N: 0},
		{N: 2, S: []int{2}},
		{N: 2, T: []int{-1}},
		{N: 2, Q: [][3]int{{0, 1, 2}}},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("invalid instance accepted: %+v", in)
		}
	}
}

func TestPhiWidthAndSize(t *testing.T) {
	for m := 1; m <= 8; m++ {
		phi, err := Phi(m)
		if err != nil {
			t.Fatal(err)
		}
		if w := logic.Width(phi); w != 3 {
			t.Fatalf("Width(φ_%d) = %d, want 3", m, w)
		}
	}
	s2, _ := Phi(2)
	s4, _ := Phi(4)
	s6, _ := Phi(6)
	if logic.Size(s4)-logic.Size(s2) != logic.Size(s6)-logic.Size(s4) {
		t.Fatalf("φ size growth not linear: %d, %d, %d", logic.Size(s2), logic.Size(s4), logic.Size(s6))
	}
	if _, err := Phi(0); err == nil {
		t.Fatal("φ₀ accepted")
	}
}

func TestPhiMatchesRounds(t *testing.T) {
	// φ_m(x) holds exactly of the elements derivable within m rounds.
	in := chain(5)
	db, err := in.ToDatabase()
	if err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= 6; m++ {
		phi, err := Phi(m)
		if err != nil {
			t.Fatal(err)
		}
		q := logic.MustQuery([]logic.Var{"x"}, phi)
		got, err := eval.BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		// On the chain, round i adds element i−1 (0 is a source, round 1).
		want := m
		if want > 5 {
			want = 5
		}
		if got.Len() != want {
			t.Fatalf("φ_%d defines %d elements, want %d: %v", m, got.Len(), want, got)
		}
	}
}

func TestReductionAgreesWithSolver(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(5)
		in := Random(r, n, r.Intn(3*n))
		want := in.Solve()
		db, err := in.ToDatabase()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Query(n)
		if err != nil {
			t.Fatal(err)
		}
		if q.Width() != 3 {
			t.Fatalf("query width %d, want 3", q.Width())
		}
		ans, err := eval.BottomUp(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got := ans.Len() > 0
		if got != want {
			t.Fatalf("reduction disagrees with solver: got %v, want %v on %+v", got, want, in)
		}
	}
}

func TestReductionAgreesUnderNaive(t *testing.T) {
	// Small instances through the trusted evaluator too.
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(2)
		in := Random(r, n, r.Intn(2*n))
		db, err := in.ToDatabase()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Query(n)
		if err != nil {
			t.Fatal(err)
		}
		holds, err := eval.NaiveHolds(q.Body, db)
		if err != nil {
			t.Fatal(err)
		}
		if holds != in.Solve() {
			t.Fatalf("naive disagreement on %+v", in)
		}
	}
}
