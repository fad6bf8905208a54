package relation

import "repro/internal/bitset"

// This file provides streaming cursors over the two relation
// representations. Both walk tuples in ascending code order, which for the
// row-major codec (decreasing strides) is lexicographic tuple order — the
// same order Set.Tuples returns after sorting. That identity is what lets
// the streaming API promise one canonical order regardless of which backend
// produced the answer, and it is pinned by TestCursorOrderIdentity.
//
// Cursors are single-goroutine values: the Tuple returned by Next is reused
// across calls, so callers that retain tuples must clone them.

// Cursor is one pass over a relation in canonical order. Skip advances past
// up to n tuples and returns how many it did; Count is the whole relation's
// exact size. A cursor only reads its relation and holds nothing of it that
// would have to be given back: one that is done with is dropped.
type Cursor interface {
	Next() (Tuple, bool)
	Skip(n int) int
	Count() int
}

// View is a finished, immutable relation that hands out cursors: the one form
// an answer has from the executor's head to the wire. *Sparse opens a cursor in
// O(1), *Dense decodes its set bits lazily, *Set sorts its tuples for each;
// any number of cursors may read one View at once.
type View interface{ Cursor() Cursor }

// Compact returns v, all components in [0, n), in the form an answer is kept
// in: sorted row-major codes (*Sparse, 8 B/tuple, nothing left to do per
// cursor). A *Sparse is that already; a *Dense takes one ascending scan of its
// bitmap; a *Set is encoded and sorted when nᵏ fits MaxSparseCode, and stays
// the Set it is when it does not.
func Compact(v View, n int) View {
	switch v := v.(type) {
	case *Dense:
		return v.ToSparse()
	case *Set:
		if sp, err := SparseFromSet(v, n); err == nil {
			return sp
		}
	}
	return v
}

// setCursor walks the sorted tuples of a Set.
type setCursor struct {
	tuples []Tuple
	i      int
}

// Cursor returns a cursor over a sorted copy of the set's tuples.
func (s *Set) Cursor() Cursor { return &setCursor{tuples: s.Tuples()} }

func (c *setCursor) Next() (Tuple, bool) {
	if c.i >= len(c.tuples) {
		return nil, false
	}
	t := c.tuples[c.i]
	c.i++
	return t, true
}

func (c *setCursor) Skip(n int) int {
	n = min(n, len(c.tuples)-c.i)
	c.i += n
	return n
}

func (c *setCursor) Count() int { return len(c.tuples) }

// DenseCursor enumerates the tuples of a Dense relation lazily, decoding one
// set bit per Next call. Skip advances over whole 64-bit words by popcount
// without decoding the bits it discards, so seeking to OFFSET costs
// O(offset/64 + words scanned) rather than O(offset) decodes.
type DenseCursor struct {
	d   *Dense
	bc  bitset.Cursor
	buf Tuple
}

// Cursor returns a cursor over d, which it only reads: d must not be written
// or released while a cursor is open, and is otherwise left to the collector.
func (d *Dense) Cursor() Cursor {
	return &DenseCursor{d: d, bc: d.bits.Cursor(), buf: make(Tuple, d.sp.k)}
}

// Next returns the next tuple in ascending index (lexicographic) order. The
// returned tuple is reused by subsequent calls.
func (c *DenseCursor) Next() (Tuple, bool) {
	idx, ok := c.bc.Next()
	if !ok {
		return nil, false
	}
	return c.d.sp.Decode(idx, c.buf), true
}

// Skip advances past up to n tuples and returns how many were skipped.
func (c *DenseCursor) Skip(n int) int { return c.bc.Skip(n) }

// Count returns the exact number of tuples in the underlying relation
// (independent of cursor position) — a word-parallel popcount.
func (c *DenseCursor) Count() int { return c.d.Count() }

// SparseCursor enumerates the tuples of a Sparse relation by walking its
// sorted code slice. Skip is O(1): a slice index jump.
type SparseCursor struct {
	s   *Sparse
	i   int
	buf Tuple
}

// Cursor returns a cursor over s.
func (s *Sparse) Cursor() Cursor { return &SparseCursor{s: s, buf: make(Tuple, s.k)} }

// Next returns the next tuple in ascending code (lexicographic) order. The
// returned tuple is reused by subsequent calls.
func (c *SparseCursor) Next() (Tuple, bool) {
	if c.i >= len(c.s.codes) {
		return nil, false
	}
	t := c.s.DecodeInto(c.s.codes[c.i], c.buf)
	c.i++
	return t, true
}

// Skip advances past up to n tuples and returns how many were skipped.
func (c *SparseCursor) Skip(n int) int {
	n = min(n, len(c.s.codes)-c.i)
	c.i += n
	return n
}

// Count returns the exact number of tuples in the underlying relation.
func (c *SparseCursor) Count() int { return len(c.s.codes) }
