package relation

// Delta-aware primitives for semi-naive fixpoint evaluation. A fixpoint
// stage's delta is typically a thin slice of the nᵏ-point space, so these
// operations drive off the delta operand's nonzero words (see
// bitset/sparse.go) instead of sweeping the whole bitmap, and the quantifier
// variant picks the bit-level path when the delta is sparse enough that
// per-tuple work beats a word-parallel pass.

// UnionSparse sets d to d ∪ o, visiting only o's nonzero words. It returns
// the number of changed words — the changed-word mask size, which is what a
// delta pass's downstream cost is proportional to.
func (d *Dense) UnionSparse(o *Dense) int {
	d.mustMatch(o)
	return d.bits.OrSparse(o.bits)
}

// UnionAndSparse sets d to d ∪ (drv ∩ o), visiting only drv's nonzero words:
// the semi-naive join rule with drv as the delta side.
func (d *Dense) UnionAndSparse(drv, o *Dense) int {
	d.mustMatch(drv)
	d.mustMatch(o)
	return d.bits.OrAndSparse(drv.bits, o.bits)
}

// DifferenceSparse sets d to d \ o, visiting only d's nonzero words, and
// returns the number of tuples remaining in d — the delta-tightening step,
// reporting convergence (zero) from the same pass.
func (d *Dense) DifferenceSparse(o *Dense) int {
	d.mustMatch(o)
	return d.bits.AndNotSparse(o.bits)
}

// ExistsAxisSparse is ExistsAxis for delta relations: when d holds few
// tuples, cylindrifying each set bit individually is cheaper than the
// word-parallel axis fold, so the implementation switches on density. The
// result is identical to ExistsAxis at every density.
func (d *Dense) ExistsAxisSparse(i int) *Dense {
	d.sp.checkAxis(i)
	if d.thin() {
		res := d.sp.Empty()
		stride := d.sp.stride[i]
		n := d.sp.n
		d.bits.ForEach(func(idx int) {
			base := idx - d.sp.Coord(idx, i)*stride
			for v := 0; v < n; v++ {
				res.bits.Set(base + v*stride)
			}
		})
		return res
	}
	return d.ExistsAxis(i)
}
