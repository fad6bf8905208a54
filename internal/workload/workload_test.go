package workload

import (
	"testing"

	"repro/internal/relation"
)

func TestLineGraph(t *testing.T) {
	db := LineGraph(5)
	if db.Size() != 5 {
		t.Fatalf("Size = %d", db.Size())
	}
	e, err := db.Rel("E")
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 4 {
		t.Fatalf("E has %d edges, want 4", e.Len())
	}
	for i := 0; i < 4; i++ {
		if !e.Contains(relation.Tuple{i, i + 1}) {
			t.Fatalf("missing edge %d→%d", i, i+1)
		}
	}
	p, _ := db.Rel("P")
	if !p.Contains(relation.Tuple{0}) || p.Len() != 1 {
		t.Fatalf("P = %v", p)
	}
}

func TestCycleGraph(t *testing.T) {
	db := CycleGraph(4)
	e, _ := db.Rel("E")
	if e.Len() != 4 || !e.Contains(relation.Tuple{3, 0}) {
		t.Fatalf("cycle E = %v", e)
	}
}

func TestRandomGraphDeterministicPerSeed(t *testing.T) {
	a := RandomGraph(42, 10, 3)
	b := RandomGraph(42, 10, 3)
	if a.String() != b.String() {
		t.Fatal("same seed produced different graphs")
	}
	c := RandomGraph(43, 10, 3)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
	ea, _ := a.Rel("E")
	ea.ForEach(func(tp relation.Tuple) {
		if tp[0] < 0 || tp[0] >= 10 || tp[1] < 0 || tp[1] >= 10 {
			t.Fatalf("edge out of range: %v", tp)
		}
	})
}

func TestCorporateInvariants(t *testing.T) {
	db := Corporate(7, 12)
	for _, name := range []string{"EMP", "MGR", "SCY", "SAL", "SAL2"} {
		if !db.HasRelation(name) {
			t.Fatalf("missing relation %s", name)
		}
	}
	emp, _ := db.RelValues("EMP")
	if emp.Len() != 12 {
		t.Fatalf("EMP has %d rows, want 12", emp.Len())
	}
	sal, _ := db.RelValues("SAL")
	sal2, _ := db.RelValues("SAL2")
	if !sal.Equal(sal2) {
		t.Fatal("SAL and SAL2 must be identical copies")
	}
	// Every employee's department has a manager row.
	mgr, _ := db.RelValues("MGR")
	deptHasMgr := map[int]bool{}
	mgr.ForEach(func(tp relation.Tuple) { deptHasMgr[tp[0]] = true })
	bad := false
	emp.ForEach(func(tp relation.Tuple) {
		if !deptHasMgr[tp[1]] {
			bad = true
		}
	})
	if bad {
		t.Fatal("employee assigned to a manager-less department")
	}
}

func TestRandomKripke(t *testing.T) {
	k := RandomKripke(5, 8, 3)
	if k.States() != 8 {
		t.Fatalf("States = %d", k.States())
	}
	// Deterministic per seed.
	a, errA := k.ToDatabase()
	b, errB := RandomKripke(5, 8, 3).ToDatabase()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different structures")
	}
}

func TestTinySizes(t *testing.T) {
	for _, n := range []int{1, 2} {
		LineGraph(n)
		CycleGraph(n)
	}
}
