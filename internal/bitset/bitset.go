// Package bitset provides fixed-size bit sets packed into 64-bit words.
//
// Bit sets are the storage backbone of the dense k-ary relations used by the
// bounded-variable evaluators: a relation over the variables x_1..x_k and a
// domain of n elements is a set of at most n^k points, and every Boolean
// connective of the logic maps to a word-parallel bit operation.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity set of integers in [0, Len()).
// The zero value is an empty set of capacity 0.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Full returns a set of capacity n with every bit set.
func Full(n int) *Set {
	s := New(n)
	s.SetAll()
	return s
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// SetAll sets every bit.
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// ClearAll clears every bit.
func (s *Set) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so that Count, Equal and
// friends can work word-wise.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountBelow reports whether fewer than limit bits are set, without counting
// past the word that reaches it.
func (s *Set) CountBelow(limit int) bool {
	c := 0
	for _, w := range s.words {
		if c += bits.OnesCount64(w); c >= limit {
			return false
		}
	}
	return c < limit
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (s *Set) None() bool { return !s.Any() }

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	t := New(s.n)
	copy(t.words, s.words)
	return t
}

// Copy overwrites s with the contents of t. The sets must have equal capacity.
func (s *Set) Copy(t *Set) {
	s.mustMatch(t)
	copy(s.words, t.words)
}

func (s *Set) mustMatch(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: size mismatch %d vs %d", s.n, t.n))
	}
}

// Or sets s to s ∪ t.
func (s *Set) Or(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// And sets s to s ∩ t.
func (s *Set) And(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// AndNot sets s to s \ t.
func (s *Set) AndNot(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Xor sets s to the symmetric difference of s and t.
func (s *Set) Xor(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] ^= w
	}
}

// Not complements s in place (with respect to its capacity).
func (s *Set) Not() {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
}

// Equal reports whether s and t hold exactly the same bits. Sets of different
// capacity are never equal.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every bit of s is also set in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.mustMatch(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit, in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Cursor walks the set bits of a Set in increasing order, one call at a
// time. Unlike ForEach it can be suspended between bits, which is what a
// streaming enumerator needs, and Skip advances over whole words by popcount
// without decoding the bits it discards.
//
// The cursor reads the underlying words directly; mutating the Set while a
// cursor is open yields unspecified (but memory-safe) results.
type Cursor struct {
	words []uint64
	wi    int    // index of the word cur was taken from
	cur   uint64 // remaining bits of words[wi], lowest bit = next result
}

// Cursor returns a cursor positioned before the first set bit.
func (s *Set) Cursor() Cursor {
	c := Cursor{words: s.words}
	if len(c.words) > 0 {
		c.cur = c.words[0]
	}
	return c
}

// Next returns the index of the next set bit, and whether one exists.
func (c *Cursor) Next() (int, bool) {
	for c.cur == 0 {
		c.wi++
		if c.wi >= len(c.words) {
			return 0, false
		}
		c.cur = c.words[c.wi]
	}
	b := bits.TrailingZeros64(c.cur)
	c.cur &= c.cur - 1
	return c.wi*wordBits + b, true
}

// Skip advances past up to n set bits without reporting them and returns how
// many were actually skipped (less than n only if the set ran out). Whole
// words are skipped by popcount, so skipping k bits costs O(k/64 + words
// scanned), not O(k) bit decodes.
func (c *Cursor) Skip(n int) int {
	skipped := 0
	for skipped < n {
		pc := bits.OnesCount64(c.cur)
		if skipped+pc <= n {
			skipped += pc
			c.wi++
			if c.wi >= len(c.words) {
				c.cur = 0
				return skipped
			}
			c.cur = c.words[c.wi]
			continue
		}
		// The boundary falls inside cur: clear bits one at a time.
		for skipped < n {
			c.cur &= c.cur - 1
			skipped++
		}
	}
	return skipped
}

// Hash returns a 64-bit FNV-1a style hash of the set contents, suitable for
// cycle detection over sequences of sets.
func (s *Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h = (h ^ uint64(s.n)) * prime
	for _, w := range s.words {
		h = (h ^ w) * prime
	}
	return h
}

// String renders the set as a list of indices, e.g. "{0, 3, 17}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
