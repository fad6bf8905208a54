package eval

import (
	"container/list"
	"sync"

	"repro/internal/relation"
)

// NodeStore shares the values of closed plan nodes between evaluations
// (DESIGN.md, "Shared sub-plan values"): an LRU list bounded in bytes, read
// and filled by run.evalNode. A key determines its value (storeKey) and is
// admitted on its second offer. Keys name the content a value read, so an
// update retires nothing here: values of content no snapshot holds sink to the
// tail and leave by eviction, and are hits again if the content returns.
// Stored values are frozen: un-owned for every run, never mutated or released.
// Safe for concurrent use, and when nil.
type NodeStore struct {
	mu     sync.Mutex
	budget int64
	ll     *list.List // of *storeEntry, most recently used first
	items  map[string]*list.Element
	seen   map[string]struct{}        // keys offered once; emptied at seenMax
	spaces map[[2]int]*relation.Space // interned for good: stored dense values live in them
	pinned int64                      // their share of st.Bytes
	st     NodeStoreStats
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
	key   string
	val   any              // a node's value in its run's algebra
	stage *relation.Sparse // under a seedable fix node: the fixpoint's final stage
	bytes int64            // value, stage, key and entryOverhead
}

const seenMax, entryOverhead = 8192, 128

// NewNodeStore returns a store of at most budget bytes.
func NewNodeStore(budget int64) *NodeStore {
	return &NodeStore{budget: budget, ll: list.New(), items: map[string]*list.Element{},
		seen: map[string]struct{}{}, spaces: map[[2]int]*relation.Space{}}
}

// get returns the value and stage under key, nil if there is no entry.
func (s *NodeStore) get(key string) (any, *relation.Sparse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.st.Misses++
		return nil, nil
	}
	s.st.Hits++
	s.ll.MoveToFront(el)
	e := el.Value.(*storeEntry)
	return e.val, e.stage
}

// put offers val (of that size) and its stage, if any; kept, it reports, on the key's second offer if under budget/8.
func (s *NodeStore) put(key string, val any, stage *relation.Sparse, bytes int64) bool {
	if bytes += int64(len(key)) + entryOverhead; stage != nil {
		bytes += 8 * int64(stage.Count())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[key]; ok || bytes > s.budget/8 {
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
	s.items[key] = s.ll.PushFront(&storeEntry{key, val, stage, bytes})
	s.st.Admitted++
	s.charge(bytes)
	return true
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
