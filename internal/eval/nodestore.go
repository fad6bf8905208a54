package eval

import (
	"container/list"
	"sync"

	"repro/internal/plan"
	"repro/internal/relation"
)

// NodeStore shares the values of closed plan nodes between evaluations
// (DESIGN.md, "Shared sub-plan values"): an LRU list bounded in bytes, read
// and filled by run.evalNode. A key names a denotation (storeKey): its entry,
// admitted on the second offer, holds a value per algebra, a fixpoint's final
// stage and sparse probe layouts. Keys name the content read, so an update
// retires nothing: values of content no snapshot holds leave by eviction, and
// are hits again if it returns. Stored values are frozen: un-owned for every
// run, never mutated or released. Safe for concurrent use, and when nil.
type NodeStore struct {
	mu       sync.Mutex
	budget   int64
	ll       *list.List // of *storeEntry, most recently used first
	items    map[string]*storeEntry
	seen     map[string]struct{}        // keys offered once; emptied at seenMax
	spaces   map[[2]int]*relation.Space // interned for good: stored dense values live in them
	pinned   int64                      // their share of st.Bytes
	st       NodeStoreStats
	onLayout func() // a test's hook: a run lays out a stored value (layout)
}

// NodeStoreStats: Entries and Bytes now, the other counters since the start.
type NodeStoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Admitted  int64 `json:"admitted"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

type storeEntry struct {
	key     string
	el      *list.Element         // its place in ll
	vals    [2]any                // the node's value per algebra that computed it, at its slot
	stage   *relation.Sparse      // under a seedable fix node: the fixpoint's final stage, either algebra's
	layouts map[uint64]*joinIndex // the sparse value laid out for probes, by probing support (layout)
	bytes   int64                 // all of it, key and entryOverhead included
}

const seenMax, entryOverhead = 8192, 128

// slot is the index in storeEntry.vals of the dense or the sparse algebra's value.
func slot(sparse bool) int {
	if sparse {
		return 1
	}
	return 0
}

// NewNodeStore returns a store of at most budget bytes.
func NewNodeStore(budget int64) *NodeStore {
	return &NodeStore{budget: budget, ll: list.New(), items: map[string]*storeEntry{},
		seen: map[string]struct{}{}, spaces: map[[2]int]*relation.Space{}, onLayout: func() {}}
}

// get returns key's value in an algebra and its stage, a hit if either is there.
func (s *NodeStore) get(key string, sparse bool) (any, *relation.Sparse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[key]
	if e == nil || e.vals[slot(sparse)] == nil && e.stage == nil {
		s.st.Misses++
		return nil, nil
	}
	s.st.Hits++
	s.ll.MoveToFront(e.el)
	return e.vals[slot(sparse)], e.stage
}

// put offers val (of that size) and its stage, if any; kept, it reports: on the
// key's second offer if under budget/8, or into an entry that can grow by it.
// An entry charges a block once: a sparse value that is its stage adds its header.
func (s *NodeStore) put(key string, sparse bool, val any, stage *relation.Sparse, bytes int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[key]
	if e != nil && e.stage != nil {
		stage = e.stage // charged already
	} else if stage != nil {
		bytes += 8 * int64(stage.Count())
	}
	if sv, ok := val.(*sval); ok && stage != nil && sv.rel == stage {
		bytes -= 8 * int64(stage.Cap())
	}
	if e != nil {
		if e.vals[slot(sparse)] != nil || !s.grow(e, bytes) {
			return false
		}
		e.vals[slot(sparse)], e.stage = val, stage
		return true
	}
	if bytes += int64(len(key)) + entryOverhead; bytes > s.budget/8 {
		return false
	}
	if _, ok := s.seen[key]; !ok {
		if len(s.seen) >= seenMax {
			clear(s.seen)
		}
		s.seen[key] = struct{}{}
		return false
	}
	delete(s.seen, key)
	e = &storeEntry{key: key, stage: stage, layouts: map[uint64]*joinIndex{}, bytes: bytes}
	s.items[key], e.vals[slot(sparse)], e.el = e, val, s.ll.PushFront(e)
	s.st.Admitted++
	s.charge(bytes)
	return true
}

// grow charges e bytes more, moved to the front, unless over budget/4 (room to evict to).
func (s *NodeStore) grow(e *storeEntry, bytes int64) bool {
	if e.bytes+bytes > s.budget/4 {
		return false
	}
	s.ll.MoveToFront(e.el)
	e.bytes += bytes
	s.charge(bytes)
	return true
}

// layout returns sv laid out for probes over the support probe if the store
// holds sv and can keep the layout, else nil: built outside the lock, and kept
// in sv's entry (charged, evicted with it) unless a racing run's is first.
func (s *NodeStore) layout(sv *sval, probe []int) *joinIndex {
	if s == nil || sv.key == "" {
		return nil
	}
	s.mu.Lock()
	e, ix := s.layoutOf(sv, plan.AxisMask(probe))
	room := e != nil && e.bytes+8*int64(3*sv.rel.Count()+1+3*64)+128 <= s.budget/4 // ix.bytes() at most: grow takes it
	s.mu.Unlock()
	if ix != nil || !room {
		return ix
	}
	s.onLayout()
	ix = newIndex(sv, probe)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, won := s.layoutOf(sv, ix.probe); won != nil || e == nil || !s.grow(e, ix.bytes()) {
		return won
	}
	e.layouts[ix.probe] = ix
	return ix
}

// layoutOf returns sv's entry if the store holds sv, and its layout for the probing support mask.
func (s *NodeStore) layoutOf(sv *sval, mask uint64) (*storeEntry, *joinIndex) {
	if e := s.items[sv.key]; e != nil && e.vals[slot(true)] == any(sv) {
		return e, e.layouts[mask]
	}
	return nil, nil
}

// charge adds bytes and evicts to the budget; Spaces hold half of it at most.
func (s *NodeStore) charge(bytes int64) {
	for s.st.Bytes += bytes; s.st.Bytes > s.budget; s.st.Evictions++ {
		s.remove(s.ll.Back())
	}
}

func (s *NodeStore) remove(el *list.Element) {
	e := s.ll.Remove(el).(*storeEntry)
	delete(s.items, e.key)
	s.st.Bytes -= e.bytes
}

// Stats returns the store's counters, all zero for a nil store.
func (s *NodeStore) Stats() (st NodeStoreStats) {
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		st = s.st
		st.Entries = int64(s.ll.Len())
	}
	return st
}

// space returns the k-ary Space over n elements and whether it is the store's:
// interned for good, charged an nᵏ-bit mask per diagonal and slab template,
// unless over an eighth of the budget or bringing the Spaces over half of it.
func (s *NodeStore) space(k, n int) (*relation.Space, bool, error) {
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if sp := s.spaces[[2]int{k, n}]; sp != nil {
			return sp, true, nil
		}
	}
	sp, err := relation.NewSpace(k, n)
	if s == nil || err != nil {
		return sp, false, err
	}
	bytes := int64(k*(k+1)/2) * int64(sp.Size()/8)
	if bytes > s.budget/8 || s.pinned+bytes > s.budget/2 {
		return sp, false, nil
	}
	s.spaces[[2]int{k, n}] = sp
	s.pinned += bytes
	s.charge(bytes)
	return sp, true, nil
}
