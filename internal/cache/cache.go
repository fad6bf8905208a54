// Package cache provides the serving-layer caches of the bvqd daemon:
//
//   - LRU — a mutex-guarded least-recently-used map with hit/miss/eviction
//     counters, the substrate for both caches below;
//   - PlanCache — compiled plans keyed by query text, so a repeated query
//     never pays parse+compile twice (the "amortize preprocessing"
//     discipline of the constant-delay line of work);
//   - ResultCache — evaluation answers keyed by (the content the query
//     read, engine, options, query text); sound because a query's value is a
//     function of the domain and of the relations occurring in it
//     (database.ContentID) and every engine is deterministic. The one rule
//     under updates: a key names the content it read, so no update retires
//     an entry or has to look at one. A miss after an update that touched
//     the query's footprint resumes from the entry of the content before it
//     where delta-restart maintenance applies; entries leave by LRU eviction
//     alone — the "amortize preprocessing" rule again: keep what was
//     computed for as long as the content it read can be asked for again;
//   - Flight — single-flight deduplication, so concurrent identical
//     requests share one evaluation instead of racing n copies.
//
// Everything here is stdlib-only and safe for concurrent use.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// LRU is a fixed-capacity least-recently-used cache with string keys. The
// zero value is not usable; construct with NewLRU. A capacity of zero
// disables the cache: Get always misses and Put is a no-op, which lets
// callers turn caching off without branching.
type LRU[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions atomic.Int64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns an LRU holding at most max entries (0 disables caching).
func NewLRU[V any](max int) *LRU[V] {
	return &LRU[V]{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key, marking it most recently used.
func (l *LRU[V]) Get(key string) (V, bool) {
	var zero V
	if l.max <= 0 {
		l.misses.Add(1)
		return zero, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses.Add(1)
		return zero, false
	}
	l.ll.MoveToFront(el)
	l.hits.Add(1)
	return el.Value.(*lruEntry[V]).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry when
// the cache is full.
func (l *LRU[V]) Put(key string, val V) {
	if l.max <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		l.ll.MoveToFront(el)
		return
	}
	l.items[key] = l.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if l.ll.Len() > l.max {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry[V]).key)
		l.evictions.Add(1)
	}
}

// Peek returns the cached value for key. It counts nothing and moves nothing:
// a question about the cache, not a read of it.
func (l *LRU[V]) Peek(key string) (V, bool) {
	var zero V
	if l.max <= 0 {
		return zero, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return zero, false
	}
	return el.Value.(*lruEntry[V]).val, true
}

// Len returns the current number of entries.
func (l *LRU[V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}

// Counters returns cumulative hit, miss and eviction counts.
func (l *LRU[V]) Counters() (hits, misses, evictions int64) {
	return l.hits.Load(), l.misses.Load(), l.evictions.Load()
}
