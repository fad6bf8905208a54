package relation

import "testing"

func TestSetAddContains(t *testing.T) {
	s := NewSet(2)
	s.Add(Tuple{1, 2})
	s.Add(Tuple{1, 2}) // duplicate
	s.Add(Tuple{3, 4})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(Tuple{1, 2}) || s.Contains(Tuple{2, 1}) {
		t.Fatal("membership wrong")
	}
	if s.Contains(Tuple{1}) {
		t.Fatal("wrong-arity membership should be false")
	}
}

func TestSetAddAliasing(t *testing.T) {
	s := NewSet(2)
	tp := Tuple{1, 2}
	s.Add(tp)
	tp[0] = 9
	if !s.Contains(Tuple{1, 2}) {
		t.Fatal("Add did not copy the tuple")
	}
}

func TestSetArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch on Add did not panic")
		}
	}()
	NewSet(2).Add(Tuple{1})
}

func TestZeroArySet(t *testing.T) {
	s := NewSet(0)
	if s.Contains(Tuple{}) {
		t.Fatal("empty 0-ary set contains ()")
	}
	s.Add(Tuple{})
	if !s.Contains(Tuple{}) || s.Len() != 1 {
		t.Fatal("0-ary set broken")
	}
}

func TestSetTheoreticOps(t *testing.T) {
	a := SetOf(1, Tuple{1}, Tuple{2}, Tuple{3})
	b := SetOf(1, Tuple{2}, Tuple{3}, Tuple{4})
	if got := a.Union(b); got.Len() != 4 {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(SetOf(1, Tuple{2}, Tuple{3})) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Difference(b); !got.Equal(SetOf(1, Tuple{1})) {
		t.Fatalf("Difference = %v", got)
	}
	if !a.Intersect(b).SubsetOf(a) {
		t.Fatal("intersection not a subset")
	}
}

func TestProjectProductSelect(t *testing.T) {
	s := SetOf(2, Tuple{1, 2}, Tuple{3, 2}, Tuple{1, 4})
	if got := s.Project([]int{1}); !got.Equal(SetOf(1, Tuple{2}, Tuple{4})) {
		t.Fatalf("Project = %v", got)
	}
	// Project can duplicate and reorder columns.
	if got := s.Project([]int{1, 0, 1}); got.Len() != 3 || !got.Contains(Tuple{2, 1, 2}) {
		t.Fatalf("Project with reorder = %v", got)
	}
	u := SetOf(1, Tuple{7}, Tuple{8})
	p := s.Product(u)
	if p.Len() != 6 || p.Arity() != 3 || !p.Contains(Tuple{1, 2, 7}) {
		t.Fatalf("Product = %v", p)
	}
	sel := SetOf(2, Tuple{1, 1}, Tuple{1, 2}).SelectEq(0, 1)
	if !sel.Equal(SetOf(2, Tuple{1, 1})) {
		t.Fatalf("SelectEq = %v", sel)
	}
}

func TestTuplesSorted(t *testing.T) {
	s := SetOf(2, Tuple{2, 0}, Tuple{0, 1}, Tuple{0, 0})
	ts := s.Tuples()
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Compare(ts[i]) >= 0 {
			t.Fatalf("Tuples not sorted: %v", ts)
		}
	}
	if s.String() != "{(0, 0), (0, 1), (2, 0)}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestToDenseErrors(t *testing.T) {
	sp := MustSpace(2, 3)
	if _, err := SetOf(1, Tuple{0}).ToDense(sp); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := SetOf(2, Tuple{0, 3}).ToDense(sp); err == nil {
		t.Fatal("out-of-domain tuple accepted")
	}
}
