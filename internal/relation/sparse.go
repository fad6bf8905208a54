package relation

import (
	"fmt"
	"slices"
	"sort"
)

// MaxSparseCode bounds the code space of a Sparse relation: nᵏ must fit a
// uint64 with headroom for index arithmetic. Unlike MaxDenseBits this is not
// a memory bound — a Sparse relation stores only its tuples — it merely keeps
// the row-major codec exact.
const MaxSparseCode = uint64(1) << 62

// Sparse is a k-ary relation over the domain {0, …, n−1} stored as a sorted,
// deduplicated block of row-major tuple codes: tuple (t₀, …, t_{k−1}) is the
// uint64 Σ tᵢ·n^{k−1−i}, the same codec as Space but without the nᵏ ≤
// MaxDenseBits ceiling. Memory is 8 bytes per tuple regardless of nᵏ, which
// is what lets a k=3 query over n=10⁴ (a 10¹²-point dense space) evaluate in
// megabytes.
//
// The sorted-block layout gives logarithmic membership, linear merge-union
// and merge-difference, and a galloping intersection that degrades gracefully
// when one operand is much smaller than the other. The operators return new
// relations and a Sparse is immutable once it is shared; the two that work in
// place, Subtract and Blocks.Accumulate, are for the one holder of a relation
// nobody else has seen (eval's sparse algebra keeps that bit).
type Sparse struct {
	k, n   int
	stride []uint64 // stride[i] = n^{k−1−i}
	codes  []uint64 // sorted ascending, no duplicates
}

// sparseShape validates (k, n) and returns the stride table.
func sparseShape(k, n int) ([]uint64, error) {
	if k < 0 {
		return nil, fmt.Errorf("relation: negative arity %d", k)
	}
	if n < 0 {
		return nil, fmt.Errorf("relation: negative domain size %d", n)
	}
	if k > 62 { // what n ≥ 2 allows; over n ≤ 1 a declared arity would otherwise size the table below
		return nil, fmt.Errorf("relation: sparse arity %d exceeds 62", k)
	}
	size := uint64(1)
	for i := 0; i < k; i++ {
		if n == 0 {
			size = 0
			break
		}
		if size > MaxSparseCode/uint64(n) {
			return nil, fmt.Errorf("relation: sparse code space %d^%d exceeds %d", n, k, MaxSparseCode)
		}
		size *= uint64(n)
	}
	stride := make([]uint64, k)
	s := uint64(1)
	for i := k - 1; i >= 0; i-- {
		stride[i] = s
		if n > 0 {
			s *= uint64(n)
		}
	}
	return stride, nil
}

// NewSparse returns the empty k-ary sparse relation over a domain of n
// elements. It fails only if the code space nᵏ does not fit MaxSparseCode.
func NewSparse(k, n int) (*Sparse, error) { return (*Blocks)(nil).Empty(k, n) }

// MustSparse is NewSparse for statically valid shapes; it panics on error.
func MustSparse(k, n int) *Sparse {
	s, err := NewSparse(k, n)
	if err != nil {
		panic(err)
	}
	return s
}

// SparseOf builds a sparse relation from explicit tuples, in a block of
// exactly its length: one safe to share, which nothing clips or grows into.
func SparseOf(k, n int, tuples ...Tuple) (*Sparse, error) {
	s, err := NewSparse(k, n)
	if err != nil {
		return nil, err
	}
	s.codes = make([]uint64, 0, len(tuples))
	for _, t := range tuples {
		c, err := s.EncodeChecked(t)
		if err != nil {
			return nil, err
		}
		s.codes = append(s.codes, c)
	}
	s.canon()
	s.codes = slices.Clip(s.codes)
	return s, nil
}

// SparseFromSet converts a map-backed Set into the sparse layout over a
// domain of n elements. Components outside [0, n) are rejected.
func SparseFromSet(set *Set, n int) (*Sparse, error) {
	s, err := NewSparse(set.Arity(), n)
	if err != nil {
		return nil, err
	}
	s.codes = make([]uint64, 0, set.Len())
	var convErr error
	set.ForEach(func(t Tuple) {
		if convErr != nil {
			return
		}
		c, err := s.EncodeChecked(t)
		if err != nil {
			convErr = err
			return
		}
		s.codes = append(s.codes, c)
	})
	if convErr != nil {
		return nil, convErr
	}
	s.canon()
	return s, nil
}

// sparseFromCodes wraps a code slice that the caller may not reuse,
// canonicalizing it (sort + dedup).
func sparseFromCodes(k, n int, stride []uint64, codes []uint64) *Sparse {
	s := &Sparse{k: k, n: n, stride: stride, codes: codes}
	s.canon()
	return s
}

// canon sorts and deduplicates the code block in place.
func (s *Sparse) canon() {
	if s.sorted() {
		return // a block collected in cursor order is already canonical
	}
	slices.Sort(s.codes)
	w := 1
	for i := 1; i < len(s.codes); i++ {
		if s.codes[i] != s.codes[w-1] {
			s.codes[w] = s.codes[i]
			w++
		}
	}
	s.codes = s.codes[:w]
}

// sorted reports whether codes are strictly ascending: already canonical.
func (s *Sparse) sorted() bool {
	for i := 1; i < len(s.codes); i++ {
		if s.codes[i] <= s.codes[i-1] {
			return false
		}
	}
	return true
}

// Arity returns k.
func (s *Sparse) Arity() int { return s.k }

// Domain returns n, the number of domain elements.
func (s *Sparse) Domain() int { return s.n }

// Count returns the number of tuples.
func (s *Sparse) Count() int { return len(s.codes) }

// Cap returns the number of tuples s's block has room for: what it occupies.
func (s *Sparse) Cap() int { return cap(s.codes) }

// SpaceSize returns nᵏ, the number of points of the (virtual) full space.
func (s *Sparse) SpaceSize() uint64 {
	if s.k == 0 {
		return 1
	}
	if s.n == 0 {
		return 0
	}
	return s.stride[0] * uint64(s.n)
}

// SameShape reports whether two sparse relations have identical arity and
// domain.
func (s *Sparse) SameShape(o *Sparse) bool { return s.k == o.k && s.n == o.n }

// EncodeChecked maps a tuple to its code, reporting out-of-domain components
// as errors (possible for stored database tuples).
func (s *Sparse) EncodeChecked(t Tuple) (uint64, error) {
	if len(t) != s.k {
		return 0, fmt.Errorf("relation: encoding %d-tuple in sparse relation of arity %d", len(t), s.k)
	}
	var c uint64
	for i, v := range t {
		if v < 0 || v >= s.n {
			return 0, fmt.Errorf("relation: component %d outside domain [0,%d)", v, s.n)
		}
		c += uint64(v) * s.stride[i]
	}
	return c, nil
}

// DecodeInto writes the tuple with the given code into dst (allocated when
// nil) and returns it.
func (s *Sparse) DecodeInto(code uint64, dst Tuple) Tuple {
	if dst == nil {
		dst = make(Tuple, s.k)
	}
	n := uint64(s.n)
	for i := s.k - 1; i >= 0; i-- {
		dst[i], code = int(code%n), code/n // one division per component
	}
	return dst
}

// Contains reports whether the relation contains t.
func (s *Sparse) Contains(t Tuple) bool {
	c, err := s.EncodeChecked(t)
	if err != nil {
		return false
	}
	return s.ContainsCode(c)
}

// ContainsCode reports membership of a tuple code via binary search.
func (s *Sparse) ContainsCode(c uint64) bool {
	i := sort.Search(len(s.codes), func(i int) bool { return s.codes[i] >= c })
	return i < len(s.codes) && s.codes[i] == c
}

// ForEach calls fn with every tuple in ascending code order. The tuple is
// reused across calls; clone it to retain.
func (s *Sparse) ForEach(fn func(Tuple)) {
	t := make(Tuple, s.k)
	for _, c := range s.codes {
		fn(s.DecodeInto(c, t))
	}
}

// ForEachCode calls fn with every tuple code, ascending.
func (s *Sparse) ForEachCode(fn func(uint64)) {
	for _, c := range s.codes {
		fn(c)
	}
}

// Tuples returns the tuples in ascending code order (which for the row-major
// codec is lexicographic order).
func (s *Sparse) Tuples() []Tuple {
	out := make([]Tuple, len(s.codes))
	for i, c := range s.codes {
		out[i] = s.DecodeInto(c, nil)
	}
	return out
}

// Clone returns an independent copy.
func (s *Sparse) Clone() *Sparse {
	return &Sparse{k: s.k, n: s.n, stride: s.stride, codes: append([]uint64(nil), s.codes...)}
}

// Equal reports whether two relations have the same shape and tuples. Sorted
// canonical blocks make this one linear scan.
func (s *Sparse) Equal(o *Sparse) bool {
	if !s.SameShape(o) || len(s.codes) != len(o.codes) {
		return false
	}
	for i, c := range s.codes {
		if o.codes[i] != c {
			return false
		}
	}
	return true
}

func (s *Sparse) mustMatch(o *Sparse) {
	if !s.SameShape(o) {
		panic(fmt.Sprintf("relation: sparse shape mismatch: %d-ary/%d vs %d-ary/%d", s.k, s.n, o.k, o.n))
	}
}

// gallopRatio is the size skew beyond which Intersect and Difference switch
// from linear merging to binary-searching the smaller operand's codes into
// the larger block.
const gallopRatio = 16

// Intersect returns s ∩ o. When one operand is much smaller the intersection
// gallops: each code of the small side is located in the large side by binary
// search over the remaining suffix, an O(small · log large) bound that beats
// the linear merge exactly when the skew is large.
func (s *Sparse) Intersect(o *Sparse) *Sparse { return (*Blocks)(nil).Intersect(s, o) }

// Intersect is s.Intersect(o) into a recycled block.
func (bl *Blocks) Intersect(s, o *Sparse) *Sparse {
	s.mustMatch(o)
	a, b := s.codes, o.codes
	if len(a) > len(b) {
		a, b = b, a
	}
	out := bl.get(len(a))
	if len(a) == 0 {
		return s.like(out)
	}
	if len(b)/len(a) >= gallopRatio {
		lo := 0
		for _, c := range a {
			i := lo + sort.Search(len(b)-lo, func(i int) bool { return b[lo+i] >= c })
			if i < len(b) && b[i] == c {
				out = append(out, c)
				lo = i + 1
			} else {
				lo = i
			}
			if lo >= len(b) {
				break
			}
		}
		return s.like(out)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return s.like(out)
}

// like wraps codes, canonical already, as a relation of s's shape.
func (s *Sparse) like(codes []uint64) *Sparse {
	return &Sparse{k: s.k, n: s.n, stride: s.stride, codes: codes}
}

// Union returns s ∪ o by a linear merge of the two sorted blocks.
func (s *Sparse) Union(o *Sparse) *Sparse {
	s.mustMatch(o)
	return s.like(merge(make([]uint64, 0, len(s.codes)+len(o.codes)), s.codes, o.codes))
}

// merge appends a ∪ b to out, which neither overlaps.
func merge(out, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}

// Accumulate returns s ∪ o for a caller that goes on growing the result, and
// consumes s. An s the caller owns — no other holder, owned says — takes o into
// its own block, merged from the back, so that a union costs new memory for o's
// tuples and not for s's; where that block is too short, or s is not the
// caller's to write, the union is merged forwards into a block of twice its
// size (and an owned s's block recycled), which happens O(log) times as a value
// grows.
func (bl *Blocks) Accumulate(s, o *Sparse, owned bool) *Sparse {
	s.mustMatch(o)
	a, b := s.codes, o.codes
	if len(b) == 0 && owned {
		return s
	}
	if !owned || cap(a) < len(a)+len(b) || overlaps(a, b) {
		out := merge(bl.get(2*(len(a)+len(b))), a, b)
		if !owned {
			return s.like(out)
		}
		bl.Release(s)
		s.codes = out
		return s
	}
	// a[:i] is unmerged, a[w:] merged; every code of a above b[j] moves up past
	// it in one copy, found by galloping down from i.
	i, w := len(a), len(a)+len(b)
	a = a[:w]
	for j := len(b) - 1; j >= 0; j-- {
		p := upperBack(a[:i], b[j])
		w -= i - p
		copy(a[w:], a[p:i])
		if i = p; i > 0 && a[i-1] == b[j] {
			continue // in both: a's own copy is kept
		}
		w--
		a[w] = b[j]
	}
	if w > i { // duplicates left a gap
		a = a[:i+copy(a[i:], a[w:])]
	}
	s.codes = a
	return s
}

// upperBack returns the number of codes of a that are ≤ c, galloping down from
// the top: O(log d) for an answer d below len(a).
func upperBack(a []uint64, c uint64) int {
	lo, hi := len(a)-1, len(a) // a[hi:] > c; a[lo] ≤ c once the gallop stops, or lo < 0
	for step := 1; lo >= 0 && a[lo] > c; step <<= 1 {
		hi, lo = lo, lo-step
	}
	lo = max(lo, -1)
	for hi-lo > 1 {
		if m := (lo + hi) >> 1; a[m] > c {
			hi = m
		} else {
			lo = m
		}
	}
	return hi
}

// overlaps reports whether a and b share a backing array (the test math/big
// uses: slices of one array end at one address unless capped on purpose).
func overlaps(a, b []uint64) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// Difference returns s \ o. A much larger o is probed by galloping search
// instead of merged.
func (s *Sparse) Difference(o *Sparse) *Sparse { return (*Blocks)(nil).Difference(s, o) }

// Difference is s.Difference(o) into a recycled block.
func (bl *Blocks) Difference(s, o *Sparse) *Sparse {
	s.mustMatch(o)
	return s.like(subtract(bl.get(len(s.codes)), s.codes, o.codes))
}

// Subtract removes o's tuples from s in place, for the one holder of s.
func (s *Sparse) Subtract(o *Sparse) {
	s.mustMatch(o)
	s.codes = subtract(s.codes[:0], s.codes, o.codes)
}

// subtract appends a \ b to out: a fresh block, or a[:0] — a write never
// passes the read it follows.
func subtract(out, a, b []uint64) []uint64 {
	if len(a) == 0 || len(b) == 0 {
		return append(out, a...)
	}
	if len(b)/(len(a)+1) >= gallopRatio {
		lo := 0
		for _, c := range a {
			i := lo + sort.Search(len(b)-lo, func(i int) bool { return b[lo+i] >= c })
			if i >= len(b) || b[i] != c {
				out = append(out, c)
			}
			lo = i
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j >= len(b) {
			return append(out, a[i:]...)
		}
		if b[j] != a[i] {
			out = append(out, a[i])
		}
		i++
	}
	return out
}

// bitmapSpace is the largest filter code space Semijoin looks keys up in through
// a bitmap (8 KiB) instead of by binary search, whose mispredicted branches are
// what a key costs once no tuple is decoded: 18,000 keys against 8 codes read
// 80 µs and 320 µs (EXPERIMENTS.md "PR 26").
const bitmapSpace = 1 << 16

// Semijoin returns the tuples of s whose projection onto the strictly ascending
// columns cols is in f (keep) or is not (the antijoin), on codes: no tuple is
// decoded. On s's leading columns a code c of f names one range [c·w, (c+1)·w)
// of s's block, found by galloping from the last and kept or skipped as a slice,
// into a block of the result's size: O(|f|·log|s| + |out|). Otherwise, or under an
// f larger than s, the key is read off each code of s, one division per column
// down to cols[0], and looked up.
func (bl *Blocks) Semijoin(s, f *Sparse, cols []int, keep bool) *Sparse {
	j, prev := len(cols), -1
	for _, col := range cols {
		if col <= prev || col >= s.k {
			j = -1
		}
		prev = col
	}
	if j != f.k || s.n != f.n {
		panic(fmt.Sprintf("relation: semijoin of %d-ary/%d on columns %v with %d-ary/%d", s.k, s.n, cols, f.k, f.n))
	}
	a := s.codes
	small := len(f.codes) <= max(len(a), 1) // walking f costs no more than walking s
	if len(f.codes) == 0 || small && (j == 0 || prev == j-1) {
		w := s.SpaceSize() / max(f.SpaceSize(), 1)         // the code space below the leading columns
		cut := append(make([]int, 0, 2*len(f.codes)+2), 0) // 0, then where each range begins and ends in a
		for _, c := range f.codes {
			start := cut[len(cut)-1] + lowerBound(a[cut[len(cut)-1]:], c*w)
			cut = append(cut, start, start+lowerBound(a[start:], (c+1)*w))
		}
		cut = append(cut, len(a))
		if keep {
			cut = cut[1 : len(cut)-1] // the ranges; the antijoin keeps what lies between them
		}
		total := 0
		for i := 0; i < len(cut); i += 2 {
			total += cut[i+1] - cut[i]
		}
		out := bl.get(total)
		for i := 0; i < len(cut); i += 2 {
			out = append(out, a[cut[i]:cut[i+1]]...)
		}
		return s.like(out)
	}
	var bitmap []uint64
	if space := f.SpaceSize(); small && space <= bitmapSpace {
		bitmap = make([]uint64, space/64+1)
		for _, c := range f.codes {
			bitmap[c/64] |= 1 << (c % 64)
		}
	}
	out, n := SparseBuilder{s: s.like(nil), bl: bl}, uint64(s.n)
	for _, c := range a {
		key, rest, i := uint64(0), c, j-1
		for col := s.k - 1; i >= 0; col-- {
			d := rest % n
			if rest /= n; col == cols[i] {
				key, i = key+d*f.stride[i], i-1
			}
		}
		if in := bitmap != nil && bitmap[key/64]>>(key%64)&1 != 0 || bitmap == nil && f.ContainsCode(key); in == keep {
			out.AddCode(c)
		}
	}
	return out.s
}

// lowerBound returns the number of codes of a below c, galloping up from the
// front: O(log d) for an answer d.
func lowerBound(a []uint64, c uint64) int {
	hi := 1
	for hi < len(a) && a[hi-1] < c {
		hi <<= 1
	}
	i, _ := slices.BinarySearch(a[hi>>1:min(hi, len(a))], c)
	return hi>>1 + i
}

// Project returns the projection onto the given columns, in order; columns
// may repeat. The result is canonicalized (projection can merge tuples).
func (s *Sparse) Project(cols []int) *Sparse {
	for _, c := range cols {
		if c < 0 || c >= s.k {
			panic(fmt.Sprintf("relation: projection column %d out of arity %d", c, s.k))
		}
	}
	stride, err := sparseShape(len(cols), s.n)
	if err != nil {
		// The target code space is at most the source code space, which was
		// validated at construction.
		panic(err)
	}
	out := make([]uint64, len(s.codes))
	t := make(Tuple, s.k)
	for i, c := range s.codes {
		s.DecodeInto(c, t)
		var nc uint64
		for ci, col := range cols {
			nc += uint64(t[col]) * stride[ci]
		}
		out[i] = nc
	}
	return sparseFromCodes(len(cols), s.n, stride, out)
}

// DropAxis existentially projects axis i of s away into a recycled block:
// the (k−1)-ary relation { (t₀,…,t_{i−1},t_{i+1},…) | t ∈ s }. It is the
// per-axis projection the sparse evaluator uses for ∃xᵢ.
func (bl *Blocks) DropAxis(s *Sparse, i int) *Sparse {
	if i < 0 || i >= s.k {
		panic(fmt.Sprintf("relation: axis %d out of arity %d", i, s.k))
	}
	si := s.stride[i]
	block := si * uint64(s.n)
	out := bl.get(len(s.codes))
	for _, c := range s.codes {
		out = append(out, (c/block)*si+c%si)
	}
	// The strides of one axis fewer are this table's tail.
	return sparseFromCodes(s.k-1, s.n, s.stride[1:], out)
}

// AllAxis universally projects axis i away: the (k−1)-ary relation of groups
// whose axis-i fiber is the whole domain — the sparse ∀xᵢ. Codes are grouped
// by their axis-i-removed residue; a group satisfies ∀ exactly when it
// contains n distinct codes (the block is deduplicated, so count equals the
// number of distinct axis-i values).
func (s *Sparse) AllAxis(i int) *Sparse {
	if i < 0 || i >= s.k {
		panic(fmt.Sprintf("relation: axis %d out of arity %d", i, s.k))
	}
	stride := s.stride[1:]
	if s.n == 0 {
		// Vacuous ∀ over an empty domain: every residue qualifies, but there
		// are no codes at all; the empty result matches the dense convention.
		return &Sparse{k: s.k - 1, n: s.n, stride: stride}
	}
	si := s.stride[i]
	block := si * uint64(s.n)
	groups := make([]uint64, len(s.codes))
	for idx, c := range s.codes {
		groups[idx] = (c/block)*si + c%si
	}
	slices.Sort(groups)
	out := groups[:0]
	for idx := 0; idx+s.n <= len(groups); idx++ {
		if groups[idx+s.n-1] == groups[idx] { // n of a kind, no two codes equal: the fiber is whole
			out = append(out, groups[idx])
		}
	}
	return &Sparse{k: s.k - 1, n: s.n, stride: stride, codes: out}
}

// CrossAxis widens s by inserting a full axis at column position pos
// (0 ≤ pos ≤ k), into a recycled block: every tuple is replaced by its n
// extensions. This is the cylinder materialization at sparse representation
// boundaries; the result has n·Count() tuples, so callers budget-check before
// widening.
func (bl *Blocks) CrossAxis(s *Sparse, pos int) (*Sparse, error) {
	if pos < 0 || pos > s.k {
		panic(fmt.Sprintf("relation: insert position %d out of arity %d", pos, s.k))
	}
	stride, err := bl.shape(s.k+1, s.n)
	if err != nil {
		return nil, err
	}
	// Split each code at the insertion point and interleave all n values of
	// the new axis. The new axis has stride n^{k−pos}; everything above it is
	// scaled by n.
	var below uint64 = 1
	for i := s.k - 1; i >= pos; i-- {
		below *= uint64(s.n)
	}
	out := bl.get(len(s.codes) * s.n)
	for _, c := range s.codes {
		hi, lo := c/below, c%below
		base := hi * below * uint64(s.n)
		for v := 0; v < s.n; v++ {
			out = append(out, base+uint64(v)*below+lo)
		}
	}
	return sparseFromCodes(s.k+1, s.n, stride, out), nil
}

// Complement enumerates the codes of the full space not in s. The caller is
// responsible for checking that nᵏ − Count() is an acceptable materialization
// (the eval layer enforces its sparse budget before complementing).
func (s *Sparse) Complement() *Sparse {
	total := s.SpaceSize()
	out := make([]uint64, 0, int(total)-len(s.codes))
	next := 0
	for c := uint64(0); c < total; c++ {
		if next < len(s.codes) && s.codes[next] == c {
			next++
			continue
		}
		out = append(out, c)
	}
	return &Sparse{k: s.k, n: s.n, stride: s.stride, codes: out}
}

// ToSet converts to the map-backed representation.
func (s *Sparse) ToSet() *Set {
	out := NewSet(s.k)
	s.ForEach(func(t Tuple) { out.Add(t) })
	return out
}

// ToDense materializes the relation in a dense space of the same shape.
func (s *Sparse) ToDense(sp *Space) (*Dense, error) {
	if sp.Arity() != s.k || sp.Domain() != s.n {
		return nil, fmt.Errorf("relation: sparse %d-ary/%d into dense space %d-ary/%d", s.k, s.n, sp.Arity(), sp.Domain())
	}
	d := sp.Empty()
	for _, c := range s.codes {
		d.AddIndex(int(c))
	}
	return d, nil
}

// ToSparse converts a dense relation to the sparse layout. Dense space
// indices are already row-major codes, so this is a single ascending scan —
// no sort needed.
func (d *Dense) ToSparse() *Sparse {
	s := MustSparse(d.sp.Arity(), d.sp.Domain())
	s.codes = make([]uint64, 0, d.Count())
	d.ForEachIndex(func(idx int) { s.codes = append(s.codes, uint64(idx)) })
	return s
}

// FromSparse cylindrifies a sparse relation into this full-width space: the
// result contains every point t with (t_{args[0]}, …, t_{args[m−1]}) ∈ src —
// the dense side of a sparse→dense conversion node.
func (sp *Space) FromSparse(src *Sparse, args []int) (*Dense, error) {
	if src.Domain() != sp.Domain() {
		return nil, fmt.Errorf("relation: domain mismatch %d vs %d", src.Domain(), sp.Domain())
	}
	c, err := sp.newCylinder(args, src.Arity())
	if err != nil {
		return nil, err
	}
	if sp.size == 0 {
		c.drop()
		return sp.Empty(), nil
	}
	c.rep.ClearAll()
	t := make(Tuple, src.Arity())
	for _, code := range src.codes {
		src.DecodeInto(code, t)
		c.add(t)
	}
	return c.finish(), nil
}

// String renders the relation like Set.String, for tests and debugging.
func (s *Sparse) String() string { return s.ToSet().String() }

// SparseBuilder accumulates tuples for a Sparse relation; Build canonicalizes
// once, so bulk construction costs one sort instead of per-insert ordering.
type SparseBuilder struct {
	s  *Sparse
	bl *Blocks
}

// Builder starts building a k-ary sparse relation over a domain of n elements,
// growing through recycled blocks.
func (bl *Blocks) Builder(k, n int) (*SparseBuilder, error) {
	s, err := bl.Empty(k, n)
	if err != nil {
		return nil, err
	}
	return &SparseBuilder{s: s, bl: bl}, nil
}

// Add appends a tuple, validating its components.
func (b *SparseBuilder) Add(t Tuple) error {
	c, err := b.s.EncodeChecked(t)
	if err != nil {
		return err
	}
	b.AddCode(c)
	return nil
}

// AddCode appends a raw tuple code the caller has already validated.
func (b *SparseBuilder) AddCode(c uint64) {
	if old := b.s.codes; b.bl != nil && len(old) == cap(old) {
		b.s.codes = append(b.bl.get(max(8, 2*len(old))), old...)
		b.bl.put(old)
	}
	b.s.codes = append(b.s.codes, c)
}

// Len returns the number of codes added so far (before deduplication).
func (b *SparseBuilder) Len() int { return len(b.s.codes) }

// Build canonicalizes and returns the relation. The builder must not be used
// afterwards.
func (b *SparseBuilder) Build() *Sparse {
	s := b.s
	b.s = nil
	s.canon()
	return s
}
