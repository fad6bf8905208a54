package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrPanicked is wrapped into the error that Do returns — to the leader and
// every follower alike — when the leader's fn panics. The panic value is
// captured in the message; test with errors.Is(err, ErrPanicked).
var ErrPanicked = errors.New("cache: single-flight leader panicked")

// Flight deduplicates concurrent calls by key: while one caller (the
// leader) runs fn, every other caller with the same key blocks and then
// shares the leader's result. This is the single-flight pattern of
// golang.org/x/sync/singleflight, re-implemented on the stdlib with one
// addition: waiters can abandon the wait when their context fires, while
// the leader runs on.
//
// The leader's own context governs the shared computation — a follower with
// a longer deadline than the leader inherits the leader's outcome, including
// a deadline error. Callers who cannot accept that should use distinct keys.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewFlight returns an empty single-flight group.
func NewFlight[V any]() *Flight[V] {
	return &Flight[V]{calls: make(map[string]*flightCall[V])}
}

// Do runs fn under key, coalescing concurrent duplicates. It returns the
// result, whether it was shared from another caller's execution (true for
// followers, false for the leader), and the error. A follower whose ctx
// fires before the leader finishes returns ctx.Err() without waiting
// further; the leader ignores ctx here — fn is expected to honor it.
//
// A panic in fn does not propagate: it is recovered and converted into an
// ErrPanicked-wrapped error delivered to the leader and all followers, and
// the in-flight entry is removed either way, so the key is immediately
// reusable and no follower is stranded.
func (f *Flight[V]) Do(ctx context.Context, key string, fn func() (V, error)) (val V, shared bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	func() {
		// The defer runs even when fn panics: record the panic as the call's
		// error, then unconditionally unregister the key and release the
		// followers. Ordering matters — c.err must be set before close(done).
		defer func() {
			if p := recover(); p != nil {
				var zero V
				c.val, c.err = zero, fmt.Errorf("%w: %v", ErrPanicked, p)
			}
			f.mu.Lock()
			delete(f.calls, key)
			f.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()
	return c.val, false, c.err
}
