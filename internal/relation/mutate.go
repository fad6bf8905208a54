package relation

// Tuple-level delta application, the relation substrate of mutable
// databases: a database update is normalized into per-relation insert and
// delete tuple lists (database.Delta), and the stored representations, Set
// and Sparse, apply them without rebuilding from scratch. Deletes apply before inserts, so a tuple
// appearing in both lists ends up present — the update semantics documented
// on database.Database.Apply.

import "slices"

// ApplyDelta returns a new set equal to (s \ del) ∪ ins. The receiver is not
// modified — database snapshots share unchanged relations, so mutation must
// be copy-on-write — and the returned set shares tuple storage with s and
// ins (tuples are treated as immutable everywhere in this package).
func (s *Set) ApplyDelta(ins, del []Tuple) *Set {
	out := s.Clone()
	for _, t := range del {
		out.Remove(t)
	}
	for _, t := range ins {
		out.Add(t)
	}
	return out
}

// ApplyDelta returns a new sparse relation equal to (s \ del) ∪ ins, built
// by two sorted-code merges into a block of exactly its length (SparseOf's
// form: a database stores both). The receiver is unchanged; errors report
// tuples outside the relation's k/n shape.
func (s *Sparse) ApplyDelta(ins, del []Tuple) (*Sparse, error) {
	delRel, err := SparseOf(s.k, s.n, del...)
	if err != nil {
		return nil, err
	}
	insRel, err := SparseOf(s.k, s.n, ins...)
	if err != nil {
		return nil, err
	}
	out := s.Difference(delRel).Union(insRel)
	out.codes = slices.Clip(out.codes)
	return out, nil
}
