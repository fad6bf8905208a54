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

// cylinder builds the denotation of an atom R(x_{args[0]}, …) in a space:
// one representative bit per source tuple over the mentioned axes alone (rep),
// then a broadcast of that bitmap over each unmentioned axis, innermost first,
// so every pass but the last writes a space smaller than the result.
type cylinder struct {
	sp    *Space
	chain []*Space // chain[j] is sp with j axes fewer; rep is of the last
	free  []int    // unmentioned axes, innermost first
	args  []int
	step  []int // step[a]: index stride of a mentioned axis a within rep
	seen  []int
	rep   *bitset.Set // arbitrary contents until the caller clears or fills it
}

// newCylinder validates an argument pattern for a relation of the given arity
// against the space and draws the representative bitmap from its pool.
func (sp *Space) newCylinder(args []int, arity int) (*cylinder, error) {
	if len(args) != arity {
		return nil, fmt.Errorf("relation: atom has %d arguments for relation of arity %d", len(args), arity)
	}
	c := &cylinder{sp: sp, chain: []*Space{sp}, args: args, step: make([]int, sp.k), seen: make([]int, sp.k)}
	for _, a := range args {
		if a < 0 || a >= sp.k {
			return nil, fmt.Errorf("relation: atom argument refers to variable %d outside width %d", a, sp.k)
		}
		c.step[a] = 1
	}
	stride := 1
	for a := sp.k - 1; a >= 0; a-- {
		if c.step[a] == 0 {
			c.free = append(c.free, a)
			c.chain = append(c.chain, c.chain[len(c.free)-1].lower())
		} else {
			c.step[a] = stride
			stride *= sp.n
		}
	}
	c.rep = c.chain[len(c.free)].getBits()
	return c, nil
}

// add records tuple t, whose components lie in the domain. A tuple that
// disagrees with a repeated argument — (1,2) under R(x,x) — adds nothing.
func (c *cylinder) add(t Tuple) {
	for i := range c.seen {
		c.seen[i] = -1
	}
	idx := 0
	for pos, a := range c.args {
		v := t[pos]
		if c.seen[a] < 0 {
			c.seen[a] = v
			idx += v * c.step[a]
		} else if c.seen[a] != v {
			return
		}
	}
	c.rep.Set(idx)
}

// finish broadcasts the representative bitmap over the free axes and returns
// the relation.
func (c *cylinder) finish() *Dense {
	rep, f := c.rep, len(c.free)
	for j, a := range c.free {
		next := c.chain[f-j-1].getBits()
		next.Broadcast(rep, c.sp.stride[a], c.sp.n)
		c.chain[f-j].putBits(rep)
		rep = next
	}
	return &Dense{sp: c.sp, bits: rep}
}

// drop gives the representative bitmap back without building the relation.
func (c *cylinder) drop() { c.chain[len(c.free)].putBits(c.rep) }

// FromAtom cylindrifies a stored database relation into this space:
// the result contains every point t of Dᵏ such that
// (t_{args[0]}, …, t_{args[m−1]}) ∈ rel, where m is rel's arity.
// Coordinates of t not mentioned in args are unconstrained. This is exactly
// the denotation of an atomic formula R(x_{args[0]+1}, …) under the
// full-width evaluation of Proposition 3.1.
func (sp *Space) FromAtom(rel *Set, args []int) (*Dense, error) {
	c, err := sp.newCylinder(args, rel.Arity())
	if err != nil {
		return nil, err
	}
	if sp.size == 0 {
		c.drop()
		return sp.Empty(), nil
	}
	c.rep.ClearAll()
	rel.ForEach(func(t Tuple) {
		for _, v := range t {
			if err == nil && (v < 0 || v >= sp.n) {
				err = fmt.Errorf("relation: stored tuple %v outside domain of size %d", t, sp.n)
			}
		}
		if err == nil {
			c.add(t)
		}
	})
	if err != nil {
		c.drop()
		return nil, err
	}
	return c.finish(), nil
}

// FromDenseAtom is FromAtom for a dense source relation: the result contains
// every point t of Dᵏ with (t_{args[0]}, …, t_{args[m−1]}) ∈ src, where m is
// src's arity. It is how a dense fixpoint stage is re-interpreted as an
// atomic subformula without materializing a sparse tuple set: when the
// arguments are distinct axes in ascending order the stage's own bitmap is
// the representative one and no tuple is decoded at all.
func (sp *Space) FromDenseAtom(src *Dense, args []int) (*Dense, error) {
	if src.sp.n != sp.n {
		return nil, fmt.Errorf("relation: domain mismatch %d vs %d", src.sp.n, sp.n)
	}
	c, err := sp.newCylinder(args, src.sp.k)
	if err != nil {
		return nil, err
	}
	if sp.size == 0 {
		c.drop()
		return sp.Empty(), nil
	}
	ascending := true
	for i := 1; i < len(args); i++ {
		ascending = ascending && args[i-1] < args[i]
	}
	if ascending {
		c.rep.Copy(src.bits)
	} else {
		c.rep.ClearAll()
		src.ForEach(c.add)
	}
	return c.finish(), nil
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
// ExistsAxisRef is the bit-level reference oracle.
func (d *Dense) ExistsAxis(i int) *Dense { return d.quantAxis(i, false) }

// ForallAxis returns { t | ∀v. t[i←v] ∈ d }: the denotation of ∀x_{i+1} φ.
// The result is cylindric in axis i. ForallAxisRef is the bit-level
// reference oracle.
func (d *Dense) ForallAxis(i int) *Dense { return d.quantAxis(i, true) }

// quantAxis quantifies axis i away and back. The index space factors along
// the axis into blocks of stride·n contiguous indices, each made of n slabs
// of stride indices (one per axis value), so the quantifier is the fold of
// the n slabs of every block into the space without the axis, followed by
// the broadcast of each folded slab back over its block: nᵏ bits read once,
// nᵏ written once, no individual bit touched (bitset.Quantify).
func (d *Dense) quantAxis(i int, forall bool) *Dense {
	sp := d.sp
	sp.checkAxis(i)
	if sp.size == 0 || d.bits.None() {
		return sp.Empty() // n ≥ 1, so ∀ fails everywhere on an empty relation
	}
	low := sp.lower()
	folded := low.getBits()
	res := &Dense{sp: sp, bits: sp.getBits()}
	res.bits.Quantify(d.bits, folded, sp.stride[i], sp.n, forall)
	low.putBits(folded)
	return res
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
//
// Each axis outside cols is folded away into a space without it, outermost
// first (a pinned axis keeps one slab, any other the union of its n): the
// first pass reads nᵏ bits and writes nᵏ⁻¹, the next reads those and writes
// nᵏ⁻², and so on. When cols is ascending the last pass writes the result;
// otherwise a bit gather permutes the nᵐ points that are left.
func (d *Dense) ProjectAt(esp *Space, cols []int, pinned []int, pinnedVals []int) *Dense {
	sp := d.sp
	if len(cols) != esp.k || esp.n != sp.n {
		panic(fmt.Sprintf("relation: projecting %d axes into space %d^%d (source %d^%d)",
			len(cols), esp.n, esp.k, sp.n, sp.k))
	}
	if len(pinned) != len(pinnedVals) {
		panic(fmt.Sprintf("relation: %d pinned axes with %d values", len(pinned), len(pinnedVals)))
	}
	const kept, folded = -2, -1 // else the value the axis is pinned to
	role := make([]int, sp.k)
	for a := range role {
		role[a] = folded
	}
	ascending := true
	for j, c := range cols {
		sp.checkAxis(c)
		if role[c] == kept {
			panic(fmt.Sprintf("relation: duplicate projection axis %d", c))
		}
		role[c] = kept
		ascending = ascending && (j == 0 || cols[j-1] < c)
	}
	for j, p := range pinned {
		sp.checkAxis(p)
		if role[p] != folded {
			panic(fmt.Sprintf("relation: axis %d both projected and pinned", p))
		}
		if v := pinnedVals[j]; v < 0 || v >= sp.n {
			panic(fmt.Sprintf("relation: axis %d pinned to %d outside domain of size %d", p, v, sp.n))
		}
		role[p] = pinnedVals[j]
	}

	if esp.size == 0 || sp.size == 0 {
		return esp.Empty()
	}

	// Sparse path: when the source holds few tuples (a semi-naive stage
	// delta, typically), one pass over its set bits beats folding every
	// dropped axis.
	if d.thin() {
		out := esp.Empty()
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

	// cur is d with the axes before a folded away, a bitmap of csp; every
	// axis after a is still there, so a's stride is what it is in sp.
	out := &Dense{sp: esp, bits: esp.getBits()}
	cur, csp, left := d.bits, sp, sp.k-len(cols)
	for a := 0; a < sp.k; a++ {
		if role[a] == kept {
			continue
		}
		low := csp.lower()
		next := out.bits
		if left--; left > 0 || !ascending {
			next = low.getBits()
		}
		if role[a] == folded {
			next.Fold(cur, sp.stride[a], sp.n, false)
		} else {
			next.Select(cur, sp.stride[a], sp.n, role[a])
		}
		if cur != d.bits {
			csp.putBits(cur)
		}
		cur, csp = next, low
	}
	switch {
	case cur == d.bits && ascending:
		out.bits.Copy(cur)
	case !ascending:
		// cur holds the kept axes in ascending order: read it in cols order.
		strides := make([]int, len(cols))
		for j, c := range cols {
			strides[j] = 1
			for _, o := range cols {
				if o > c {
					strides[j] *= sp.n
				}
			}
		}
		gather(out.bits, cur, strides, sp.n)
		if cur != d.bits {
			csp.putBits(cur)
		}
	}
	return out
}

// gather sets dst, nᵐ bits, to src read in another axis order: the dst point
// (t₀, …, t_{m−1}) is the src bit at index Σ tⱼ·strides[j].
func gather(dst, src *bitset.Set, strides []int, n int) {
	dst.ClearAll()
	digits := make([]int, len(strides))
	for srcIdx, outIdx := 0, 0; ; outIdx++ {
		if src.Test(srcIdx) {
			dst.Set(outIdx)
		}
		j := len(digits) - 1
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
			return
		}
	}
}

// thin reports whether d holds so few tuples that a walk over its set bits,
// about n operations each, beats a word-parallel pass over the space: count ·
// n · 8 < size, the count stopping at the threshold.
func (d *Dense) thin() bool {
	per := 8 * max(d.sp.n, 1)
	return d.bits.CountBelow((d.sp.size + per - 1) / per)
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
