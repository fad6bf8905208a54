package relation

import (
	"fmt"
	"strings"
)

// Set is a sparse relation: a set of tuples of one fixed arity over an
// unbounded integer domain. Sets store database relations, query answers,
// and back the classical relational-algebra operators.
type Set struct {
	arity int
	m     map[string]Tuple
}

// NewSet returns an empty set of the given arity.
func NewSet(arity int) *Set {
	if arity < 0 {
		panic(fmt.Sprintf("relation: negative arity %d", arity))
	}
	return &Set{arity: arity, m: make(map[string]Tuple)}
}

// SetOf builds a set from tuples. All tuples must share the given arity.
func SetOf(arity int, tuples ...Tuple) *Set {
	s := NewSet(arity)
	for _, t := range tuples {
		s.Add(t)
	}
	return s
}

// tupleKey is the map key of t: every component whole, 8 bytes each — a Set
// holds raw domain values (database.RelValues) as well as domain indices.
func tupleKey(t Tuple) string {
	var b strings.Builder
	b.Grow(len(t) * 8)
	for _, v := range t {
		for shift := 56; shift >= 0; shift -= 8 {
			b.WriteByte(byte(v >> shift))
		}
	}
	return b.String()
}

// Arity returns the arity of the set's tuples.
func (s *Set) Arity() int { return s.arity }

// Len returns the number of tuples.
func (s *Set) Len() int { return len(s.m) }

// Add inserts a copy of t. It panics on arity mismatch (programmer error).
func (s *Set) Add(t Tuple) {
	if len(t) != s.arity {
		panic(fmt.Sprintf("relation: adding %d-tuple to set of arity %d", len(t), s.arity))
	}
	k := tupleKey(t)
	if _, ok := s.m[k]; !ok {
		s.m[k] = t.Clone()
	}
}

// Contains reports whether t is in the set.
func (s *Set) Contains(t Tuple) bool {
	if len(t) != s.arity {
		return false
	}
	_, ok := s.m[tupleKey(t)]
	return ok
}

// ForEach calls fn on every tuple, in unspecified order. The callback must
// not mutate the tuple.
func (s *Set) ForEach(fn func(Tuple)) {
	for _, t := range s.m {
		fn(t)
	}
}

// Tuples returns the tuples in canonical sorted order.
func (s *Set) Tuples() []Tuple {
	out := make([]Tuple, 0, len(s.m))
	for _, t := range s.m {
		out = append(out, t)
	}
	SortTuples(out)
	return out
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := NewSet(s.arity)
	for k, t := range s.m {
		c.m[k] = t
	}
	return c
}

// Equal reports whether s and o contain the same tuples.
func (s *Set) Equal(o *Set) bool {
	if s.arity != o.arity || len(s.m) != len(o.m) {
		return false
	}
	for k := range s.m {
		if _, ok := o.m[k]; !ok {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every tuple of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	if s.arity != o.arity {
		return false
	}
	for k := range s.m {
		if _, ok := o.m[k]; !ok {
			return false
		}
	}
	return true
}

// Union returns s ∪ o.
func (s *Set) Union(o *Set) *Set {
	s.mustMatch(o)
	out := s.Clone()
	for k, t := range o.m {
		out.m[k] = t
	}
	return out
}

// Intersect returns s ∩ o.
func (s *Set) Intersect(o *Set) *Set {
	s.mustMatch(o)
	out := NewSet(s.arity)
	for k, t := range s.m {
		if _, ok := o.m[k]; ok {
			out.m[k] = t
		}
	}
	return out
}

// Difference returns s \ o.
func (s *Set) Difference(o *Set) *Set {
	s.mustMatch(o)
	out := NewSet(s.arity)
	for k, t := range s.m {
		if _, ok := o.m[k]; !ok {
			out.m[k] = t
		}
	}
	return out
}

func (s *Set) mustMatch(o *Set) {
	if s.arity != o.arity {
		panic(fmt.Sprintf("relation: arity mismatch %d vs %d", s.arity, o.arity))
	}
}

// Project returns { (t_{cols[0]}, …) | t ∈ s }, deduplicated.
func (s *Set) Project(cols []int) *Set {
	for _, c := range cols {
		if c < 0 || c >= s.arity {
			panic(fmt.Sprintf("relation: projection column %d out of arity %d", c, s.arity))
		}
	}
	out := NewSet(len(cols))
	row := make(Tuple, len(cols))
	for _, t := range s.m {
		for i, c := range cols {
			row[i] = t[c]
		}
		out.Add(row)
	}
	return out
}

// Product returns the cross product s × o: tuples are concatenations.
func (s *Set) Product(o *Set) *Set {
	out := NewSet(s.arity + o.arity)
	row := make(Tuple, s.arity+o.arity)
	for _, a := range s.m {
		copy(row, a)
		for _, b := range o.m {
			copy(row[s.arity:], b)
			out.Add(row)
		}
	}
	return out
}

// SelectEq returns { t ∈ s | t_i = t_j }.
func (s *Set) SelectEq(i, j int) *Set {
	if i < 0 || i >= s.arity || j < 0 || j >= s.arity {
		panic(fmt.Sprintf("relation: selection columns (%d,%d) out of arity %d", i, j, s.arity))
	}
	out := NewSet(s.arity)
	for k, t := range s.m {
		if t[i] == t[j] {
			out.m[k] = t
		}
	}
	return out
}

// ToDense converts the set into the dense representation in the given space.
// Every tuple must lie inside the space's domain.
func (s *Set) ToDense(sp *Space) (*Dense, error) {
	if s.arity != sp.Arity() {
		return nil, fmt.Errorf("relation: converting arity-%d set into space of arity %d", s.arity, sp.Arity())
	}
	d := sp.Empty()
	for _, t := range s.m {
		for _, v := range t {
			if v < 0 || v >= sp.Domain() {
				return nil, fmt.Errorf("relation: tuple %v outside domain of size %d", t, sp.Domain())
			}
		}
		d.Add(t)
	}
	return d, nil
}

// String renders the set as a sorted tuple list, e.g. "{(0, 1), (2, 3)}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range s.Tuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}
