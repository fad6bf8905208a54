package relation

import (
	"fmt"

	"repro/internal/bitset"
)

// Dense is a k-ary relation over {0,…,n−1} stored as a bit set over the nᵏ
// points of its Space. It is the working representation of the
// bounded-variable evaluators: every subformula of an Lᵏ query denotes one
// Dense relation over the full variable tuple (x₁,…,x_k).
//
// Dense backing bitmaps are drawn from the Space's scratch pool. A caller
// that is done with an intermediate relation may call Release to recycle the
// bitmap; using a Dense after releasing it panics.
type Dense struct {
	sp   *Space
	bits *bitset.Set
}

// Empty returns the empty relation of the space.
func (sp *Space) Empty() *Dense {
	b := sp.getBits()
	b.ClearAll()
	return &Dense{sp: sp, bits: b}
}

// Full returns Dᵏ, the total relation of the space.
func (sp *Space) Full() *Dense {
	b := sp.getBits()
	b.SetAll()
	return &Dense{sp: sp, bits: b}
}

// Diagonal returns the relation { t | t_i = t_j }. The point set is computed
// once per (i, j) and cached on the space; each call returns a fresh
// (pool-backed) copy that the caller may mutate freely.
func (sp *Space) Diagonal(i, j int) *Dense {
	sp.checkAxis(i)
	sp.checkAxis(j)
	if i == j {
		return sp.Full()
	}
	b := sp.getBits()
	b.Copy(sp.diagonalMask(i, j))
	return &Dense{sp: sp, bits: b}
}

// Release returns the relation's backing bitmap to the space's scratch pool.
// The caller must hold the only reference; any use of d after Release
// panics. Release is optional — unreleased relations are simply collected.
func (d *Dense) Release() {
	if d == nil || d.bits == nil {
		return
	}
	d.sp.putBits(d.bits)
	d.bits = nil
}

// atomAdder sets, for each database tuple consistent with an argument
// pattern, the cylinder of points it denotes. The scratch buffers are shared
// across tuples of one cylindrification.
type atomAdder struct {
	d    *Dense
	args []int
	free []int // axes not mentioned in args, ascending
	seen []int
	base Tuple
}

func newAtomAdder(d *Dense, args []int) *atomAdder {
	sp := d.sp
	mentioned := make([]bool, sp.k)
	for _, a := range args {
		mentioned[a] = true
	}
	var free []int
	for i := 0; i < sp.k; i++ {
		if !mentioned[i] {
			free = append(free, i)
		}
	}
	return &atomAdder{
		d:    d,
		args: args,
		free: free,
		seen: make([]int, sp.k),
		base: make(Tuple, sp.k),
	}
}

// add records tuple t. It reports an error only for components outside the
// domain (possible for stored database tuples).
func (aa *atomAdder) add(t Tuple) error {
	sp := aa.d.sp
	for i := range aa.base {
		aa.base[i] = 0
		aa.seen[i] = -1
	}
	for pos, a := range aa.args {
		v := t[pos]
		if v < 0 || v >= sp.n {
			return fmt.Errorf("relation: stored tuple %v outside domain of size %d", t, sp.n)
		}
		if aa.seen[a] >= 0 && aa.seen[a] != v {
			return nil // pattern like R(x,x) and tuple (1,2): contributes nothing
		}
		aa.seen[a] = v
		aa.base[a] = v
	}
	aa.d.setCylinder(sp.Encode(aa.base), aa.free, 0)
	return nil
}

// FromAtom cylindrifies a stored database relation into this space:
// the result contains every point t of Dᵏ such that
// (t_{args[0]}, …, t_{args[m−1]}) ∈ rel, where m is rel's arity.
// Coordinates of t not mentioned in args are unconstrained. This is exactly
// the denotation of an atomic formula R(x_{args[0]+1}, …) under the
// full-width evaluation of Proposition 3.1.
func (sp *Space) FromAtom(rel *Set, args []int) (*Dense, error) {
	if len(args) != rel.Arity() {
		return nil, fmt.Errorf("relation: atom has %d arguments for relation of arity %d", len(args), rel.Arity())
	}
	for _, a := range args {
		if a < 0 || a >= sp.k {
			return nil, fmt.Errorf("relation: atom argument refers to variable %d outside width %d", a, sp.k)
		}
	}
	d := sp.Empty()
	if sp.size == 0 {
		return d, nil
	}
	aa := newAtomAdder(d, args)
	var err error
	rel.ForEach(func(t Tuple) {
		if err != nil {
			return
		}
		err = aa.add(t)
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// FromDenseAtom is FromAtom for a dense source relation: the result contains
// every point t of Dᵏ with (t_{args[0]}, …, t_{args[m−1]}) ∈ src, where m is
// src's arity. It is how a dense fixpoint stage is re-interpreted as an
// atomic subformula without materializing a sparse tuple set.
func (sp *Space) FromDenseAtom(src *Dense, args []int) (*Dense, error) {
	if len(args) != src.sp.k {
		return nil, fmt.Errorf("relation: atom has %d arguments for relation of arity %d", len(args), src.sp.k)
	}
	if src.sp.n != sp.n {
		return nil, fmt.Errorf("relation: domain mismatch %d vs %d", src.sp.n, sp.n)
	}
	for _, a := range args {
		if a < 0 || a >= sp.k {
			return nil, fmt.Errorf("relation: atom argument refers to variable %d outside width %d", a, sp.k)
		}
	}
	d := sp.Empty()
	if sp.size == 0 {
		return d, nil
	}
	aa := newAtomAdder(d, args)
	var err error
	src.ForEach(func(t Tuple) {
		if err != nil {
			return
		}
		err = aa.add(t)
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// setCylinder sets every point that agrees with the point at idx outside the
// free axes (free is ascending). A trailing stride-1 axis is set as one
// contiguous word-parallel range.
func (d *Dense) setCylinder(idx int, free []int, fi int) {
	if fi == len(free) {
		d.bits.Set(idx)
		return
	}
	axis := free[fi]
	if fi == len(free)-1 && d.sp.stride[axis] == 1 {
		d.bits.SetRange(idx, d.sp.n)
		return
	}
	s := d.sp.stride[axis]
	for v := 0; v < d.sp.n; v++ {
		d.setCylinder(idx+v*s, free, fi+1)
	}
}

func (sp *Space) checkAxis(i int) {
	if i < 0 || i >= sp.k {
		panic(fmt.Sprintf("relation: axis %d out of range [0,%d)", i, sp.k))
	}
}

// Space returns the relation's space.
func (d *Dense) Space() *Space { return d.sp }

// Contains reports whether the relation contains t.
func (d *Dense) Contains(t Tuple) bool { return d.bits.Test(d.sp.Encode(t)) }

// Add inserts t.
func (d *Dense) Add(t Tuple) { d.bits.Set(d.sp.Encode(t)) }

// AddIndex inserts the tuple with the given space index.
func (d *Dense) AddIndex(idx int) { d.bits.Set(idx) }

// ForEachIndex calls fn with the space index of every tuple, ascending.
func (d *Dense) ForEachIndex(fn func(int)) { d.bits.ForEach(fn) }

// Remove deletes t.
func (d *Dense) Remove(t Tuple) { d.bits.Clear(d.sp.Encode(t)) }

// Count returns the number of tuples in the relation.
func (d *Dense) Count() int { return d.bits.Count() }

// IsEmpty reports whether the relation has no tuples.
func (d *Dense) IsEmpty() bool { return d.bits.None() }

// Clone returns a copy (pool-backed, like all Dense relations).
func (d *Dense) Clone() *Dense {
	b := d.sp.getBits()
	b.Copy(d.bits)
	return &Dense{sp: d.sp, bits: b}
}

// Copy overwrites d with o's contents.
func (d *Dense) Copy(o *Dense) {
	d.mustMatch(o)
	d.bits.Copy(o.bits)
}

func (d *Dense) mustMatch(o *Dense) {
	if !d.sp.SameShape(o.sp) {
		panic(fmt.Sprintf("relation: shape mismatch %d^%d vs %d^%d", d.sp.n, d.sp.k, o.sp.n, o.sp.k))
	}
}

// UnionWith sets d to d ∪ o.
func (d *Dense) UnionWith(o *Dense) {
	d.mustMatch(o)
	d.bits.Or(o.bits)
}

// IntersectWith sets d to d ∩ o.
func (d *Dense) IntersectWith(o *Dense) {
	d.mustMatch(o)
	d.bits.And(o.bits)
}

// DifferenceWith sets d to d \ o.
func (d *Dense) DifferenceWith(o *Dense) {
	d.mustMatch(o)
	d.bits.AndNot(o.bits)
}

// Complement complements d with respect to Dᵏ, in place.
func (d *Dense) Complement() { d.bits.Not() }

// ImpliesWith sets d to (¬d) ∪ o — the denotation of d → o — in one fused
// pass instead of Complement followed by UnionWith.
func (d *Dense) ImpliesWith(o *Dense) {
	d.mustMatch(o)
	d.bits.OrNot(o.bits)
}

// IffWith sets d to ¬(d ⊕ o) — the denotation of d ↔ o — as a fused
// symmetric-difference-and-complement pass.
func (d *Dense) IffWith(o *Dense) {
	d.mustMatch(o)
	d.bits.Xor(o.bits)
	d.bits.Not()
}

// Equal reports whether d and o contain the same tuples.
func (d *Dense) Equal(o *Dense) bool { return d.sp.SameShape(o.sp) && d.bits.Equal(o.bits) }

// SubsetOf reports whether d ⊆ o.
func (d *Dense) SubsetOf(o *Dense) bool {
	d.mustMatch(o)
	return d.bits.SubsetOf(o.bits)
}

// Hash returns a content hash, usable for cycle detection over relation
// sequences (the PFP evaluator's convergence test).
func (d *Dense) Hash() uint64 { return d.bits.Hash() }

// ExistsAxis returns { t | ∃v. t[i←v] ∈ d }: the denotation of ∃x_{i+1} φ
// under full-width evaluation. The result is cylindric in axis i.
//
// The index space factors along axis i into blocks of stride·n contiguous
// indices, each made of n slabs of stride indices (one per axis value), so
// the quantifier is a word-parallel fold of the n slabs followed by a
// broadcast of the folded slab back over the block — no individual bits are
// touched. ExistsAxisRef is the bit-level reference oracle.
func (d *Dense) ExistsAxis(i int) *Dense {
	d.sp.checkAxis(i)
	res := d.sp.Empty()
	if d.sp.size == 0 || d.sp.n == 0 || d.bits.None() {
		return res
	}
	d.sp.existsAxisInto(res.bits, d.bits, i)
	return res
}

// ForallAxis returns { t | ∀v. t[i←v] ∈ d }: the denotation of ∀x_{i+1} φ.
// The result is cylindric in axis i. See ExistsAxis for the kernel shape;
// ForallAxisRef is the bit-level reference oracle.
func (d *Dense) ForallAxis(i int) *Dense {
	d.sp.checkAxis(i)
	res := d.sp.Empty()
	if d.sp.size == 0 || d.sp.n == 0 || d.bits.None() {
		return res // n ≥ 1, so ∀ fails everywhere on an empty relation
	}
	d.sp.forallAxisInto(res.bits, d.bits, i)
	return res
}

// existsAxisInto computes the ∃-fold of src along axis i into dst, which
// must be cleared. For slabs of ≥ 64 bits the fold runs block-local over
// word ranges; narrower slabs use the masked-word path: a log-shift doubling
// fold over the whole bitmap, a slab-template mask, and a doubling
// broadcast — O(log n) full-width passes, every step still 64 bits wide.
func (sp *Space) existsAxisInto(dst, src *bitset.Set, i int) {
	n, s, size := sp.n, sp.stride[i], sp.size
	if n == 1 {
		dst.Copy(src)
		return
	}
	if s*n <= 64 {
		sp.axisFoldRegister(dst, src, i, false)
		return
	}
	if s >= 64 {
		block := s * n
		for b := 0; b+block <= size; b += block {
			dst.OrFoldStride(src, b, b, s, s, n)
			dst.OrBroadcastStride(dst, b+s, b, s, s, n-1)
		}
		return
	}
	// Fold by window doubling: after the m-th step acc[p] = OR of the m
	// slabs src[p+j·s], j < m (a forward self-overlapping shift, exact
	// because rangeOp ahead-reads see pre-pass contents). The remainder step
	// overlap-ORs window [n−m, n), which is idempotent for ∨.
	acc := sp.getBits()
	acc.Copy(src)
	m := 1
	for m*2 <= n {
		acc.OrRange(acc, 0, m*s, size-m*s)
		m *= 2
	}
	if m < n {
		acc.OrRange(acc, 0, (n-m)*s, size-(n-m)*s)
	}
	acc.And(sp.slabTemplate(i))
	sp.orBroadcastDoubling(dst, acc, s)
	sp.putBits(acc)
}

// forallAxisInto is existsAxisInto with an ∀-fold (intersection); the
// overlap remainder is idempotent for ∧ as well.
func (sp *Space) forallAxisInto(dst, src *bitset.Set, i int) {
	n, s, size := sp.n, sp.stride[i], sp.size
	if n == 1 {
		dst.Copy(src)
		return
	}
	if s*n <= 64 {
		sp.axisFoldRegister(dst, src, i, true)
		return
	}
	if s >= 64 {
		block := s * n
		for b := 0; b+block <= size; b += block {
			dst.CopyRange(src, b, b, s)
			dst.AndFoldStride(src, b, b+s, s, s, n-1)
			dst.OrBroadcastStride(dst, b+s, b, s, s, n-1)
		}
		return
	}
	acc := sp.getBits()
	acc.Copy(src)
	m := 1
	for m*2 <= n {
		acc.AndRange(acc, 0, m*s, size-m*s)
		m *= 2
	}
	if m < n {
		acc.AndRange(acc, 0, (n-m)*s, size-(n-m)*s)
	}
	acc.And(sp.slabTemplate(i))
	sp.orBroadcastDoubling(dst, acc, s)
	sp.putBits(acc)
}

// axisFoldRegister quantifies axis i when a whole block (s·n bits) fits in
// one 64-bit register: fetch the block, fold the n slabs with in-register
// shift doubling, mask the folded slab, broadcast it back with shift
// doubling, and store — a handful of register ops per block, no bitmap-wide
// passes at all. This is the common case for the innermost axis (stride 1)
// of small-domain spaces.
func (sp *Space) axisFoldRegister(dst, src *bitset.Set, i int, forall bool) {
	n, s, size := sp.n, sp.stride[i], sp.size
	block := s * n
	// When several blocks tile one word, fold them all in the same register:
	// shifts do carry bits across block boundaries, but the folded slab of
	// each block only ever reads offsets inside its own block (the doubling
	// windows never exceed n−1 slabs), so the leakage lands outside every
	// position that survives the template mask.
	window := block
	if 64%block == 0 {
		window = 64
	}
	sMask := ^uint64(0) >> uint(64-s)
	tmplMask := uint64(0)
	for off := 0; off+block <= window; off += block {
		tmplMask |= sMask << uint(off)
	}
	for b := 0; b < size; b += window {
		length := window
		if b+length > size {
			length = size - b // a multiple of block: blocks tile the space
		}
		lenMask := ^uint64(0) >> uint(64-length)
		w := src.Fetch64(b)
		if forall {
			// Out-of-range bits must be neutral (1) for the ∧-fold.
			w |= ^lenMask
		} else {
			w &= lenMask
		}
		m := 1
		for m*2 <= n {
			if forall {
				w &= w >> uint(m*s)
			} else {
				w |= w >> uint(m*s)
			}
			m *= 2
		}
		if m < n {
			if forall {
				w &= w >> uint((n-m)*s)
			} else {
				w |= w >> uint((n-m)*s)
			}
		}
		w &= tmplMask
		for cov := 1; cov < n; {
			t := cov
			if t > n-cov {
				t = n - cov
			}
			w |= w << uint(t*s)
			cov += t
		}
		dst.StoreRange(b, length, w)
	}
}

// orBroadcastDoubling writes into dst the union of acc shifted up by v·s for
// v in [0, n): the cylindrification step of the masked-word quantifier path,
// where acc holds one folded slab per block (slab-template positions only).
// The backward shift cannot run in place — ascending words would chain — so
// each doubling step goes through a scratch snapshot.
func (sp *Space) orBroadcastDoubling(dst, acc *bitset.Set, s int) {
	n, size := sp.n, sp.size
	dst.Copy(acc)
	tmp := sp.getBits()
	for cov := 1; cov < n; {
		t := cov
		if t > n-cov {
			t = n - cov
		}
		tmp.Copy(dst)
		dst.OrRange(tmp, t*s, 0, size-t*s)
		cov += t
	}
	sp.putBits(tmp)
}

// ExistsAxisRef is the bit-level reference implementation of ExistsAxis,
// kept as the correctness oracle for the word-parallel kernel.
func (d *Dense) ExistsAxisRef(i int) *Dense {
	d.sp.checkAxis(i)
	res := d.sp.Empty()
	if d.sp.size == 0 || d.sp.n == 0 || d.bits.None() {
		return res
	}
	stride := d.sp.stride[i]
	seen := d.sp.getBits()
	seen.ClearAll()
	d.bits.ForEach(func(idx int) {
		base := idx - d.sp.Coord(idx, i)*stride
		if seen.Test(base) {
			return
		}
		seen.Set(base)
		for v := 0; v < d.sp.n; v++ {
			res.bits.Set(base + v*stride)
		}
	})
	d.sp.putBits(seen)
	return res
}

// ForallAxisRef is the bit-level reference implementation of ForallAxis,
// kept as the correctness oracle for the word-parallel kernel.
func (d *Dense) ForallAxisRef(i int) *Dense {
	d.sp.checkAxis(i)
	res := d.sp.Empty()
	if d.sp.size == 0 || d.sp.n == 0 || d.bits.None() {
		return res
	}
	stride := d.sp.stride[i]
	seen := d.sp.getBits()
	seen.ClearAll()
	d.bits.ForEach(func(idx int) {
		base := idx - d.sp.Coord(idx, i)*stride
		if seen.Test(base) {
			return
		}
		seen.Set(base)
		all := true
		for v := 0; v < d.sp.n; v++ {
			if !d.bits.Test(base + v*stride) {
				all = false
				break
			}
		}
		if all {
			for v := 0; v < d.sp.n; v++ {
				res.bits.Set(base + v*stride)
			}
		}
	})
	d.sp.putBits(seen)
	return res
}

// ProjectAt computes, over the target space esp (arity len(cols), same
// domain), the dense relation
//
//	{ t | the point with coordinates cols←t, pinned←pinnedVals,
//	      and the remaining axes existentially quantified, is in d }.
//
// With no pinned axes this is dense projection (the fixpoint-stage
// extraction of the bottom-up evaluators); pinning fixes parameter axes to
// one assignment, as the per-assignment PFP sweep requires. cols and pinned
// must be disjoint lists of distinct axes.
func (d *Dense) ProjectAt(esp *Space, cols []int, pinned []int, pinnedVals []int) *Dense {
	sp := d.sp
	if len(cols) != esp.k || esp.n != sp.n {
		panic(fmt.Sprintf("relation: projecting %d axes into space %d^%d (source %d^%d)",
			len(cols), esp.n, esp.k, sp.n, sp.k))
	}
	if len(pinned) != len(pinnedVals) {
		panic(fmt.Sprintf("relation: %d pinned axes with %d values", len(pinned), len(pinnedVals)))
	}
	kept := make([]bool, sp.k)
	for _, c := range cols {
		sp.checkAxis(c)
		if kept[c] {
			panic(fmt.Sprintf("relation: duplicate projection axis %d", c))
		}
		kept[c] = true
	}
	base := 0
	for j, p := range pinned {
		sp.checkAxis(p)
		if kept[p] {
			panic(fmt.Sprintf("relation: axis %d both projected and pinned", p))
		}
		kept[p] = true
		base += pinnedVals[j] * sp.stride[p]
	}

	out := esp.Empty()
	if esp.size == 0 || sp.size == 0 {
		return out
	}

	// Sparse path: when the source holds few tuples (a semi-naive stage
	// delta, typically), one pass over its set bits beats materializing an
	// ExistsAxis intermediate per dropped axis. The threshold mirrors
	// ExistsAxisSparse: the bit-walk costs ~cnt coordinate extractions per
	// axis against one full-bitmap pass per fold.
	if cnt := d.bits.Count(); cnt*sp.n*8 < sp.size {
		d.bits.ForEach(func(idx int) {
			for j, p := range pinned {
				if sp.Coord(idx, p) != pinnedVals[j] {
					return
				}
			}
			outIdx := 0
			for j, c := range cols {
				outIdx += sp.Coord(idx, c) * esp.stride[j]
			}
			out.bits.Set(outIdx)
		})
		return out
	}

	// Quantify away the dropped axes, then gather the kept coordinates.
	tmp, owned := d, false
	for a := 0; a < sp.k; a++ {
		if kept[a] {
			continue
		}
		next := tmp.ExistsAxis(a)
		if owned {
			tmp.Release()
		}
		tmp, owned = next, true
	}

	m := len(cols)
	if m == 0 {
		if tmp.bits.Test(base) {
			out.bits.Set(0)
		}
		if owned {
			tmp.Release()
		}
		return out
	}

	n := sp.n
	strides := make([]int, m)
	for j, c := range cols {
		strides[j] = sp.stride[c]
	}
	if strides[m-1] == 1 {
		// The innermost projected axis is the source's innermost axis: each
		// output row of n bits is one contiguous source range.
		digits := make([]int, m-1)
		srcIdx, outIdx := base, 0
		for {
			out.bits.CopyRange(tmp.bits, outIdx, srcIdx, n)
			outIdx += n
			j := m - 2
			for ; j >= 0; j-- {
				digits[j]++
				srcIdx += strides[j]
				if digits[j] < n {
					break
				}
				digits[j] = 0
				srcIdx -= n * strides[j]
			}
			if j < 0 {
				break
			}
		}
	} else {
		digits := make([]int, m)
		srcIdx, outIdx := base, 0
		for {
			if tmp.bits.Test(srcIdx) {
				out.bits.Set(outIdx)
			}
			outIdx++
			j := m - 1
			for ; j >= 0; j-- {
				digits[j]++
				srcIdx += strides[j]
				if digits[j] < n {
					break
				}
				digits[j] = 0
				srcIdx -= n * strides[j]
			}
			if j < 0 {
				break
			}
		}
	}
	if owned {
		tmp.Release()
	}
	return out
}

// Project returns the sparse set { (t_{cols[0]}, …, t_{cols[m−1]}) | t ∈ d },
// deduplicated. It extracts a query answer from a full-width relation.
//
// When the axes are distinct it dedups densely first — fold the dropped
// axes word-parallel (ProjectAt), then decode only the nᵐ-point result —
// instead of decoding every one of up to nᵏ set bits into a hash set. For
// a low-arity head over a well-populated relation (the typical fixpoint
// answer) this turns answer extraction from the dominant cost of a run
// into noise.
func (d *Dense) Project(cols []int) *Set {
	for _, c := range cols {
		d.sp.checkAxis(c)
	}
	if distinct := func() bool {
		seen := make([]bool, d.sp.k)
		for _, c := range cols {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}(); distinct {
		if esp, err := NewSpace(len(cols), d.sp.n); err == nil {
			p := d.ProjectAt(esp, cols, nil, nil)
			out := p.ToSet()
			p.Release()
			return out
		}
	}
	out := NewSet(len(cols))
	t := make(Tuple, d.sp.k)
	row := make(Tuple, len(cols))
	d.bits.ForEach(func(idx int) {
		d.sp.Decode(idx, t)
		for i, c := range cols {
			row[i] = t[c]
		}
		out.Add(row.Clone())
	})
	return out
}

// ToSet converts the dense relation to a sparse tuple set of the same arity.
func (d *Dense) ToSet() *Set {
	out := NewSet(d.sp.k)
	t := make(Tuple, d.sp.k)
	d.bits.ForEach(func(idx int) {
		d.sp.Decode(idx, t)
		out.Add(t.Clone())
	})
	return out
}

// ForEach calls fn on every tuple, in index order. The tuple is reused
// between calls; clone it to retain it.
func (d *Dense) ForEach(fn func(Tuple)) {
	t := make(Tuple, d.sp.k)
	d.bits.ForEach(func(idx int) {
		d.sp.Decode(idx, t)
		fn(t)
	})
}

// String renders the relation as a sorted tuple list.
func (d *Dense) String() string { return d.ToSet().String() }
