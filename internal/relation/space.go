package relation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
)

// MaxDenseBits bounds the size of a single dense relation. A Space whose nᵏ
// exceeds this limit is rejected at construction time, so the evaluators fail
// fast with a typed error instead of attempting a pathological allocation.
const MaxDenseBits = 1 << 30

// Space is a validated (arity, domain-size) shape for dense relations.
// All Dense relations of one Space share its tuple codec: a tuple
// (t₀, …, t_{k−1}) is encoded as Σ tᵢ·n^{k−1−i} (row-major, first coordinate
// most significant).
type Space struct {
	k      int
	n      int
	size   int
	stride []int

	// pool recycles nᵏ-bit backing sets for the Dense relations of this
	// space, so that evaluators iterating thousands of subformula visits do
	// not allocate a fresh bitmap per visit. Sets in the pool hold arbitrary
	// stale contents; every consumer clears, fills or overwrites.
	pool sync.Pool

	// outstanding counts bitmaps handed out by getBits and not yet returned
	// by putBits: the space's live scratch balance. Release is optional for
	// long-lived values (they are simply collected), so the absolute number
	// is not a leak count; what the leak tests pin is that error and
	// cancellation paths leave the balance exactly where success paths do.
	outstanding int64

	// mu guards the lazily built per-space caches below. A Space may be
	// shared by concurrent evaluations (a node store interns spaces).
	mu sync.Mutex
	// diag caches the bitmap of each Diagonal(i, j) so repeated equality
	// subformulas inside fixpoint bodies cost a word-copy, not a decode of
	// every point.
	diag map[[2]int]*bitset.Set

	// low is the space with one axis fewer over the same domain, built on
	// first use: where the fold of an axis lands and its broadcast starts,
	// with a scratch pool of its own.
	low atomic.Pointer[Space]
}

// NewSpace returns the space of k-ary relations over a domain of n elements.
// It fails if k or n is negative, or if nᵏ exceeds MaxDenseBits.
func NewSpace(k, n int) (*Space, error) {
	if k < 0 {
		return nil, fmt.Errorf("relation: negative arity %d", k)
	}
	if n < 0 {
		return nil, fmt.Errorf("relation: negative domain size %d", n)
	}
	size := 1
	for i := 0; i < k; i++ {
		if n == 0 {
			size = 0
			break
		}
		if size > MaxDenseBits/n {
			return nil, fmt.Errorf("relation: dense space %d^%d exceeds %d bits", n, k, MaxDenseBits)
		}
		size *= n
	}
	sp := &Space{k: k, n: n, size: size, stride: make([]int, k)}
	s := 1
	for i := k - 1; i >= 0; i-- {
		sp.stride[i] = s
		if n > 0 {
			s *= n
		}
	}
	return sp, nil
}

// MustSpace is NewSpace for callers with statically valid shapes; it panics
// on error.
func MustSpace(k, n int) *Space {
	sp, err := NewSpace(k, n)
	if err != nil {
		panic(err)
	}
	return sp
}

// Arity returns k.
func (sp *Space) Arity() int { return sp.k }

// Domain returns n, the number of domain elements.
func (sp *Space) Domain() int { return sp.n }

// Size returns nᵏ, the number of points in the space.
func (sp *Space) Size() int { return sp.size }

// Stride returns the index stride of coordinate axis i.
func (sp *Space) Stride(i int) int { return sp.stride[i] }

// Encode maps a tuple to its index. It panics if the tuple has the wrong
// length or a component outside the domain (programmer error).
func (sp *Space) Encode(t Tuple) int {
	if len(t) != sp.k {
		panic(fmt.Sprintf("relation: encoding %d-tuple in space of arity %d", len(t), sp.k))
	}
	idx := 0
	for i, v := range t {
		if v < 0 || v >= sp.n {
			panic(fmt.Sprintf("relation: component %d out of domain [0,%d)", v, sp.n))
		}
		idx += v * sp.stride[i]
	}
	return idx
}

// Decode writes the tuple with index idx into dst (which must have length k)
// and returns it. If dst is nil a new tuple is allocated.
func (sp *Space) Decode(idx int, dst Tuple) Tuple {
	if idx < 0 || idx >= sp.size {
		panic(fmt.Sprintf("relation: index %d out of space of size %d", idx, sp.size))
	}
	if dst == nil {
		dst = make(Tuple, sp.k)
	}
	if len(dst) != sp.k {
		panic(fmt.Sprintf("relation: decode destination has length %d, want %d", len(dst), sp.k))
	}
	for i := 0; i < sp.k; i++ {
		dst[i] = (idx / sp.stride[i]) % sp.n
	}
	return dst
}

// Coord returns coordinate i of the point with index idx without decoding the
// whole tuple.
func (sp *Space) Coord(idx, i int) int {
	return (idx / sp.stride[i]) % sp.n
}

// SameShape reports whether two spaces have identical arity and domain.
func (sp *Space) SameShape(other *Space) bool {
	return sp.k == other.k && sp.n == other.n
}

// lower returns the space of arity k−1 over the same domain (k ≥ 1).
func (sp *Space) lower() *Space {
	if sp.low.Load() == nil {
		sp.low.CompareAndSwap(nil, MustSpace(sp.k-1, sp.n))
	}
	return sp.low.Load()
}

// getBits returns an nᵏ-bit set with arbitrary contents, recycled from the
// space's scratch pool when possible.
func (sp *Space) getBits() *bitset.Set {
	atomic.AddInt64(&sp.outstanding, 1)
	if v := sp.pool.Get(); v != nil {
		return v.(*bitset.Set)
	}
	return bitset.New(sp.size)
}

// putBits returns a set obtained from getBits to the pool. The caller must
// not retain any reference to it.
func (sp *Space) putBits(b *bitset.Set) {
	if b != nil {
		atomic.AddInt64(&sp.outstanding, -1)
		sp.pool.Put(b)
	}
}

// ScratchOutstanding returns the current scratch balance: getBits calls minus
// putBits calls. Tests compare balances across error and cancellation paths
// to pin the Release discipline of conversion nodes and fixpoint loops.
func (sp *Space) ScratchOutstanding() int64 {
	return atomic.LoadInt64(&sp.outstanding)
}

// diagonalMask returns the cached bitmap of { t | t_i = t_j }, building it on
// first use. The returned set is shared and must not be mutated.
func (sp *Space) diagonalMask(i, j int) *bitset.Set {
	key := [2]int{i, j}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.diag == nil {
		sp.diag = make(map[[2]int]*bitset.Set)
	}
	if m, ok := sp.diag[key]; ok {
		return m
	}
	// An index is hi + t_b·s_b + mid + t_a·s_a + low for the outer axis b and
	// the inner a of the pair: the diagonal is t_a = t_b = v, the nᵏ⁻¹ points
	// hi + mid + v·(s_a+s_b) + low, set by strides without decoding one.
	m := bitset.New(sp.size)
	a, b := max(i, j), min(i, j)
	sa, sb, n := sp.stride[a], sp.stride[b], sp.n
	for hi := 0; hi < sp.size; hi += n * sb {
		for mid := hi; mid < hi+sb; mid += n * sa {
			for at := mid; at < mid+n*(sa+sb); at += sa + sb {
				for low := at; low < at+sa; low++ {
					m.Set(low)
				}
			}
		}
	}
	sp.diag[key] = m
	return m
}
