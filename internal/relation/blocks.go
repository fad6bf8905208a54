package relation

import "math/bits"

// Blocks is one evaluation's allocator for sparse relations: the code blocks
// handed back through Release, which the builders and operators taking a
// *Blocks draw from before the heap, and one stride table per shape instead of
// one per result. A nil *Blocks allocates everything afresh and recycles
// nothing. Not safe for concurrent use.
type Blocks struct {
	free   [blockClasses][][]uint64 // free[c]: blocks of capacity [2ᶜ, 2ᶜ⁺¹)
	held   int                      // words on the free list
	shapes map[[2]int][]uint64
	poison bool
}

// blockClasses bounds the capacity of a recycled block (2³² codes are beyond
// any sparse budget); maxHeldWords what a free list keeps from the collector
// (4 MiB): evaluations of larger values recycle their smaller blocks only.
const blockClasses, maxHeldWords = 32, 1 << 19

// Poison makes Release overwrite what it takes back, so that a test reading a
// released relation reads nonsense instead of, by luck, what was there.
func (bl *Blocks) Poison() { bl.poison = true }

// get returns an empty block of capacity at least n.
func (bl *Blocks) get(n int) []uint64 {
	if bl != nil && n > 0 {
		// Every block of class ⌈log₂ n⌉ is long enough and the last one released
		// of the class below may be; one class up at most, or small values would
		// sit in the blocks large ones need.
		c0 := bits.Len(uint(n - 1))
		for c := max(c0-1, 0); c < min(c0+2, blockClasses); c++ {
			if l := len(bl.free[c]); l > 0 && cap(bl.free[c][l-1]) >= n {
				b := bl.free[c][l-1]
				bl.free[c], bl.held = bl.free[c][:l-1], bl.held-cap(b)
				return b
			}
		}
	}
	return make([]uint64, 0, n)
}

// Release takes back s's block: s is dead, whoever still reads it is wrong.
func (bl *Blocks) Release(s *Sparse) {
	if bl != nil {
		bl.put(s.codes)
		if !bl.poison {
			s.codes = nil
		}
	}
}

func (bl *Blocks) put(b []uint64) {
	if b = b[:cap(b)]; len(b) == 0 {
		return
	}
	if bl.poison {
		for i := range b {
			b[i] = ^uint64(0)
		}
	}
	if c := bits.Len(uint(len(b))) - 1; c < blockClasses && bl.held+len(b) <= maxHeldWords {
		bl.free[c], bl.held = append(bl.free[c], b[:0]), bl.held+len(b)
	}
}

// shape is sparseShape with the table shared by every relation of the shape.
func (bl *Blocks) shape(k, n int) ([]uint64, error) {
	if bl == nil {
		return sparseShape(k, n)
	}
	if stride, ok := bl.shapes[[2]int{k, n}]; ok {
		return stride, nil
	}
	stride, err := sparseShape(k, n)
	if err == nil {
		if bl.shapes == nil {
			bl.shapes = map[[2]int][]uint64{}
		}
		bl.shapes[[2]int{k, n}] = stride
	}
	return stride, err
}

// Clip leaves s in a block of exactly its length, recycling a longer one: the
// form in which a relation outlives its evaluation, 8 bytes a tuple.
func (bl *Blocks) Clip(s *Sparse) {
	if old := s.codes; cap(old) > len(old) {
		s.codes = append(make([]uint64, 0, len(old)), old...)
		if bl != nil {
			bl.put(old)
		}
	}
}

// Empty is NewSparse on a shared stride table.
func (bl *Blocks) Empty(k, n int) (*Sparse, error) {
	stride, err := bl.shape(k, n)
	if err != nil {
		return nil, err
	}
	return &Sparse{k: k, n: n, stride: stride}, nil
}
