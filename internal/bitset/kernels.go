package bitset

import "fmt"

// This file holds the range kernel under the axis kernels of axis.go, for
// slabs wider than a word that do not start on one. It works on bit ranges at
// arbitrary offsets and touches 64 bits per step: each destination word is
// read once, the matching 64 source bits gathered with at most two shifted
// loads, and the Boolean op applied under a mask for the partial first and
// last words.

// The range ops share one core, selected by opcode.
const (
	opOr = iota
	opAnd
	opCopy
)

// fetch64 returns the 64 bits of s starting at bit position off, in the low
// bits of the result. Positions at or beyond the capacity read as zero.
func (s *Set) fetch64(off int) uint64 {
	wi := off / wordBits
	sh := uint(off % wordBits)
	var w uint64
	if wi < len(s.words) {
		w = s.words[wi] >> sh
	}
	if sh != 0 && wi+1 < len(s.words) {
		w |= s.words[wi+1] << (wordBits - sh)
	}
	return w
}

func (s *Set) checkRange(off, length int, who string) {
	if length < 0 || off < 0 || off+length > s.n {
		panic(fmt.Sprintf("bitset: %s range [%d,%d) out of [0,%d)", who, off, off+length, s.n))
	}
}

// rangeOp applies s[dstOff+i] = op(s[dstOff+i], t[srcOff+i]) for i in
// [0, length), one destination word at a time. s and t may be the same set
// when the ranges are disjoint or when srcOff ≥ dstOff (forward overlap):
// destination words are processed in ascending order and every source word
// read lies at or after the word being written, so ahead-reads always see
// pre-call contents. Backward overlap (srcOff < dstOff on the same set)
// would chain freshly written words into later reads and is not supported.
func (s *Set) rangeOp(t *Set, dstOff, srcOff, length, op int) {
	s.checkRange(dstOff, length, "destination")
	t.checkRange(srcOff, length, "source")
	if dstOff%wordBits == 0 && srcOff%wordBits == 0 {
		// Word-aligned fast path: no cross-word gathers needed.
		dw, sw := dstOff/wordBits, srcOff/wordBits
		full := length / wordBits
		switch op {
		case opOr:
			for i := 0; i < full; i++ {
				s.words[dw+i] |= t.words[sw+i]
			}
		case opAnd:
			for i := 0; i < full; i++ {
				s.words[dw+i] &= t.words[sw+i]
			}
		case opCopy:
			copy(s.words[dw:dw+full], t.words[sw:sw+full])
		}
		if rem := length % wordBits; rem > 0 {
			mask := ^uint64(0) >> uint(wordBits-rem)
			v := t.fetch64(srcOff + full*wordBits)
			switch op {
			case opOr:
				s.words[dw+full] |= v & mask
			case opAnd:
				s.words[dw+full] &= v&mask | ^mask
			case opCopy:
				s.words[dw+full] = s.words[dw+full]&^mask | v&mask
			}
		}
		return
	}
	pos := 0
	for pos < length {
		di := dstOff + pos
		wi := di / wordBits
		bit := uint(di % wordBits)
		chunk := wordBits - int(bit)
		if chunk > length-pos {
			chunk = length - pos
		}
		mask := (^uint64(0) >> uint(wordBits-chunk)) << bit
		v := t.fetch64(srcOff+pos) << bit
		switch op {
		case opOr:
			s.words[wi] |= v & mask
		case opAnd:
			s.words[wi] &= v&mask | ^mask
		case opCopy:
			s.words[wi] = s.words[wi]&^mask | v&mask
		}
		pos += chunk
	}
}

// OrNot sets s to ¬s ∪ t: the fused implication kernel (s → t as a single
// pass instead of Not followed by Or).
func (s *Set) OrNot(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] = ^s.words[i] | w
	}
	s.trim()
}
