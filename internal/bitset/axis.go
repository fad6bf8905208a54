package bitset

import "fmt"

// This file holds the two halves of a quantifier over one axis of a dense
// relation (Proposition 3.1). Along an axis of stride s over a domain of n,
// the wide set is blocks × n × s bits — each block n slabs of s bits, one per
// axis value — and the narrow set, the same relation without the axis, is
// blocks × s bits. Fold reads wide and writes narrow (∨ or ∧ of the n slabs),
// Select is the fold that keeps one slab (the axis pinned to a value),
// Broadcast reads narrow and writes wide (every slab a copy), and Quantify is
// Fold then Broadcast. Each validates its shape once, panics on a bad one, and
// then works on words with the shift schedule hoisted out of the loop; which
// loop runs depends on how s and n sit against the 64-bit word:
//
//	word-slabs   s > 64, s%64 == 0         slice loops over whole-word slabs
//	ranged       s > 64 otherwise          rangeOp, slab by slab
//	word-blocks  64%s == 0, (s·n)%64 == 0  a block is whole words and a word
//	                                       whole slabs: ∨ the block's words,
//	                                       finish in one register (s = 1,
//	                                       n = 64: is the word nonzero)
//	in-word      64%(s·n) == 0             Quantify only: fold, mask and
//	                                       broadcast every block of a word at
//	                                       once, words in and words out
//	gathered     any other s ≤ 64          a block through unaligned 64-bit
//	                                       fetches, folded in a register
//
// For n a power of two every axis is word-slabs, word-blocks or in-word. ∀ is
// ¬∃¬ inside the kernels (words are xored with all-ones as they are read and
// the folded slab as it is written), so a loop is written once, for ∨.

// axisBlocks checks the shape shared by the axis kernels and returns the
// number of blocks.
func axisBlocks(wide, narrow *Set, s, n int, who string) int {
	if s < 1 || n < 1 || narrow.n%s != 0 || wide.n != narrow.n*n {
		panic(fmt.Sprintf("bitset: %s of %d slabs of %d bits between sets of %d and %d bits", who, n, s, wide.n, narrow.n))
	}
	return narrow.n / s
}

// lowMask returns a word with its low length bits set (0 ≤ length ≤ 64).
func lowMask(length int) uint64 {
	if length >= wordBits {
		return ^uint64(0)
	}
	return 1<<uint(length) - 1
}

// orBits ors w into s at bit position pos, across a word boundary when it
// straddles one. Bits of w beyond the intended length must be zero.
func (s *Set) orBits(pos int, w uint64) {
	wi, sh := pos/wordBits, uint(pos%wordBits)
	s.words[wi] |= w << sh
	if hi := w >> (wordBits - sh); sh != 0 && hi != 0 {
		s.words[wi+1] |= hi
	}
}

// foldSlabs folds the slabs of s bits held in the low span bits of acc into
// the lowest one by shift doubling: after the step of shift sh the low slab
// holds the ∨ of the first 2·sh/s slabs. Bits above the span must be zero or
// (span a power of two times s) belong to slabs that are folded likewise.
func foldSlabs(acc uint64, s, span int) uint64 {
	for sh := s; sh < span; sh <<= 1 {
		acc |= acc >> uint(sh)
	}
	return acc
}

// flipFor returns the word ∀ is computed through: ∀ is ¬∃¬, so words are
// xored with it as they are read and the folded slab as it is written.
func flipFor(and bool) uint64 {
	if and {
		return ^uint64(0)
	}
	return 0
}

// Fold sets dst, blocks × s bits, to the fold of the n slabs of each block of
// src, blocks × n × s bits: their union, or their intersection when and is
// set. It is the elimination half of a quantifier over an axis of stride s.
func (dst *Set) Fold(src *Set, s, n int, and bool) {
	blocks := axisBlocks(src, dst, s, n, "fold")
	switch block := s * n; {
	case s > wordBits && s%wordBits == 0:
		foldWordSlabs(dst.words, src.words, s/wordBits, n, and)
	case s > wordBits:
		op := opOr
		if and {
			op = opAnd
		}
		for b := 0; b < blocks; b++ {
			dst.rangeOp(src, b*s, b*block, s, opCopy)
			for v := 1; v < n; v++ {
				dst.rangeOp(src, b*s, b*block+v*s, s, op)
			}
		}
	case block == wordBits && s == 1:
		foldWordBlocks(dst.words, src.words, flipFor(and))
		dst.trim()
	case block%wordBits == 0 && wordBits%s == 0:
		foldBlockWords(dst.words, src.words, s, block/wordBits, flipFor(and))
		dst.trim()
	default:
		dst.ClearAll()
		flip, sMask := flipFor(and), lowMask(s)
		per := wordBits / s // slabs in a fetch
		for b := 0; b < blocks; b++ {
			var acc uint64
			for v := 0; v < n; v += per {
				acc |= (src.fetch64(b*block+v*s) ^ flip) & lowMask(min(per, n-v)*s)
			}
			dst.orBits(b*s, (foldSlabs(acc, s, min(per, n)*s)^flip)&sMask)
		}
	}
}

// foldWordSlabs is Fold for slabs of sw whole words.
func foldWordSlabs(dst, src []uint64, sw, n int, and bool) {
	for ; len(dst) >= sw; dst = dst[sw:] {
		d := dst[:sw]
		copy(d, src)
		for v := 1; v < n; v++ {
			u := src[v*sw:][:sw]
			if and {
				for j := range d {
					d[j] &= u[j]
				}
			} else {
				for j := range d {
					d[j] |= u[j]
				}
			}
		}
		src = src[n*sw:]
	}
}

// foldWordBlocks is Fold for s = 1, n = 64: a block is a word and its fold
// one bit, set unless the word is all flip.
func foldWordBlocks(dst, src []uint64, flip uint64) {
	for i := range dst {
		ws := src[i*wordBits : min((i+1)*wordBits, len(src))]
		var out uint64
		for _, w := range ws {
			w ^= flip
			out = out>>1 | (w|-w)&(1<<63) // the top bit of w|−w: is w nonzero
		}
		dst[i] = out>>uint(wordBits-len(ws)) ^ flip
	}
}

// foldBlockWords is Fold for blocks of bw whole words whose slabs tile a
// word: ∨ the words of a block, fold the slabs of that one word in register.
func foldBlockWords(dst, src []uint64, s, bw int, flip uint64) {
	per, sMask := wordBits/s, lowMask(s) // per blocks land in a word of dst
	for i := range dst {
		var out uint64
		for j := 0; j < per && len(src) > 0; j++ {
			out |= foldSlabs(orWords(src[:bw], flip), s, wordBits) & sMask << uint(j*s)
			src = src[bw:]
		}
		dst[i] = out ^ flip
	}
}

// orWords returns the ∨ of ws, each xored with flip. It is kept out of line:
// inlined, its one-instruction loop shares the caller's registers and spills.
//
//go:noinline
func orWords(ws []uint64, flip uint64) uint64 {
	var acc uint64
	for _, w := range ws {
		acc |= w ^ flip
	}
	return acc
}

// Select sets dst, blocks × s bits, to slab v of each block of src, blocks ×
// n × s bits: the axis of stride s pinned to the value v.
func (dst *Set) Select(src *Set, s, n, v int) {
	blocks := axisBlocks(src, dst, s, n, "select")
	if v < 0 || v >= n {
		panic(fmt.Sprintf("bitset: select of slab %d of %d", v, n))
	}
	if s > wordBits {
		for b := 0; b < blocks; b++ {
			dst.rangeOp(src, b*s, (b*n+v)*s, s, opCopy)
		}
		return
	}
	sMask := lowMask(s)
	dst.ClearAll()
	for b := 0; b < blocks; b++ {
		dst.orBits(b*s, src.fetch64((b*n+v)*s)&sMask)
	}
}

// Broadcast sets every one of the n slabs of each block of dst, blocks × n ×
// s bits, to the matching slab of src, blocks × s bits. It is the
// cylindrification half of a quantifier over an axis of stride s. dst is
// cleared first and an empty slab skipped, so a thin src costs little more
// than the clearing.
func (dst *Set) Broadcast(src *Set, s, n int) {
	blocks := axisBlocks(dst, src, s, n, "broadcast")
	block := s * n
	dst.ClearAll()
	if s > wordBits {
		// One slab from src, then the block's own first m slabs over its
		// next m: log n ranges a block, not n.
		for b := 0; b < blocks; b++ {
			if src.zeroRange(b*s, s) {
				continue
			}
			dst.rangeOp(src, b*block, b*s, s, opCopy)
			for m := 1; m < n; m *= 2 {
				dst.rangeOp(dst, b*block+m*s, b*block, min(m, n-m)*s, opCopy)
			}
		}
		return
	}
	// A slab times copies is the slab repeated: no carries, the slab being
	// narrower than the spacing of the ones.
	per := min(wordBits/s, n)
	var copies uint64
	for j := 0; j < per; j++ {
		copies |= 1 << uint(j*s)
	}
	sMask := lowMask(s)
	switch {
	case block == wordBits && s == 1:
		for i, w := range src.words {
			ws := dst.words[i*wordBits : min((i+1)*wordBits, blocks)]
			for j := 0; w != 0; j, w = j+1, w>>1 {
				ws[j] = -(w & 1)
			}
		}
	case block%wordBits == 0 && wordBits%s == 0:
		bw := block / wordBits
		for b := 0; b < blocks; b++ {
			if slab := src.words[b*s/wordBits] >> uint(b*s%wordBits) & sMask; slab != 0 {
				ws := dst.words[b*bw : (b+1)*bw]
				ws[0] = slab * copies
				for m := 1; m < bw; m *= 2 {
					copy(ws[m:], ws[:m])
				}
			}
		}
	default:
		for b := 0; b < blocks; b++ {
			rep := (src.fetch64(b*s) & sMask) * copies
			for v := 0; v < n && rep != 0; v += per {
				dst.orBits(b*block+v*s, rep&lowMask(min(per, n-v)*s))
			}
		}
	}
}

// zeroRange reports whether no bit of [off, off+length) is set.
func (s *Set) zeroRange(off, length int) bool {
	for pos := 0; pos < length; pos += wordBits {
		if s.fetch64(off+pos)&lowMask(length-pos) != 0 {
			return false
		}
	}
	return true
}

// Quantify sets dst to src with the axis of stride s quantified away and
// back, both blocks × n × s bits: every slab of a block of dst is the fold
// of the slabs of that block of src. It is Fold into tmp, blocks × s bits of
// scratch, then Broadcast — except where a block fits a word, when fold, mask
// and broadcast happen in one register and tmp is not touched.
func (dst *Set) Quantify(src, tmp *Set, s, n int, and bool) {
	block := s * n
	if block > wordBits {
		tmp.Fold(src, s, n, and)
		dst.Broadcast(tmp, s, n)
		return
	}
	blocks := axisBlocks(src, tmp, s, n, "quantify")
	dst.mustMatch(src)
	flip := flipFor(and)
	if block == wordBits && s == 1 {
		for i, w := range src.words {
			dst.words[i] = flip
			if w != flip {
				dst.words[i] = ^flip
			}
		}
		return
	}
	// A low slab times copies is that slab over its whole block.
	var copies uint64
	for j := 0; j < n; j++ {
		copies |= 1 << uint(j*s)
	}
	if wordBits%block != 0 {
		dst.ClearAll()
		bMask, sMask := lowMask(block), lowMask(s)
		for b := 0; b < blocks; b++ {
			w := (src.fetch64(b*block) ^ flip) & bMask
			dst.orBits(b*block, (foldSlabs(w, s, block)^flip)&sMask*copies)
		}
		return
	}
	// Blocks tile the word: all of them fold by the same shifts (what a low
	// slab reads stays inside its block), low marks their low slabs. A block
	// beyond the size is all flip and folds to no bit: nothing to trim.
	var low uint64
	for o := 0; o < wordBits; o += block {
		low |= lowMask(s) << uint(o)
	}
	for i, w := range src.words {
		dst.words[i] = (foldSlabs(w^flip, s, block) ^ flip) & low * copies
	}
}
