package relation

import "testing"

func TestSetApplyDelta(t *testing.T) {
	s := SetOf(2, Tuple{0, 1}, Tuple{1, 2})
	out := s.ApplyDelta([]Tuple{{2, 3}, {3, 3}}, []Tuple{{0, 1}, {5, 5}})
	if s.Len() != 2 || !s.Contains(Tuple{0, 1}) {
		t.Fatalf("receiver mutated: %v", s)
	}
	want := SetOf(2, Tuple{1, 2}, Tuple{2, 3}, Tuple{3, 3})
	if !out.Equal(want) {
		t.Fatalf("ApplyDelta = %v, want %v", out, want)
	}
	// Delete-then-insert of the same tuple keeps it present.
	both := s.ApplyDelta([]Tuple{{0, 1}}, []Tuple{{0, 1}})
	if !both.Contains(Tuple{0, 1}) {
		t.Fatalf("insert did not win over delete of the same tuple")
	}
}

func TestSparseApplyDelta(t *testing.T) {
	s, err := SparseOf(2, 10, Tuple{0, 1}, Tuple{4, 5}, Tuple{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.ApplyDelta([]Tuple{{2, 2}, {4, 5}}, []Tuple{{9, 9}, {8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	want := SetOf(2, Tuple{0, 1}, Tuple{2, 2}, Tuple{4, 5})
	if !out.ToSet().Equal(want) {
		t.Fatalf("Sparse.ApplyDelta = %v, want %v", out.ToSet(), want)
	}
	if s.Count() != 3 {
		t.Fatalf("receiver mutated: %v", s.ToSet())
	}
	if _, err := s.ApplyDelta([]Tuple{{0, 99}}, nil); err == nil {
		t.Fatalf("out-of-range insert did not error")
	}
}
