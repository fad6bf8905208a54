package cache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// inFlight returns the number of keys f is computing.
func inFlight[V any](f *Flight[V]) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// TestFlightLeaderPanicReleasesFollowers is the regression test for the
// stranded-follower bug: before the recover in Do, a panicking leader left
// the in-flight entry registered and its done channel open, so every
// coalesced follower blocked forever and the key was poisoned. Now the panic
// must surface as an ErrPanicked error to the leader and all followers, the
// in-flight table must drain, and a later Do on the same key must run fresh.
func TestFlightLeaderPanicReleasesFollowers(t *testing.T) {
	f := NewFlight[int]()
	const followers = 8
	release := make(chan struct{})
	var wg sync.WaitGroup
	leaderErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, shared, err := f.Do(context.Background(), "k", func() (int, error) {
			<-release
			panic("evaluator exploded")
		})
		if shared {
			t.Error("leader reported shared")
		}
		leaderErr <- err
	}()
	for inFlight(f) == 0 {
		time.Sleep(time.Millisecond)
	}
	// Followers pile onto the leader's in-flight entry. A straggler that
	// arrives after the leader drained becomes a fresh leader instead; its
	// fn panics too, so every goroutine must see ErrPanicked either way —
	// and before the recover existed, any coalesced follower hung forever,
	// failing this test by timeout.
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := f.Do(context.Background(), "k", func() (int, error) {
				panic("evaluator exploded")
			})
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let followers reach the wait
	close(release)
	wg.Wait()

	err := <-leaderErr
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("leader err = %v, want ErrPanicked", err)
	}
	if !strings.Contains(err.Error(), "evaluator exploded") {
		t.Fatalf("leader err %q does not carry the panic value", err)
	}
	for i := 0; i < followers; i++ {
		if err := <-errs; !errors.Is(err, ErrPanicked) {
			t.Fatalf("follower err = %v, want ErrPanicked", err)
		}
	}
	if n := inFlight(f); n != 0 {
		t.Fatalf("in-flight = %d after panic drain", n)
	}

	// The key must not be poisoned: a fresh Do runs fn and succeeds.
	v, shared, err := f.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || shared || v != 7 {
		t.Fatalf("post-panic Do = %d, shared=%v, err=%v", v, shared, err)
	}
}

// TestFlightPanicErrorNotShared checks that a panic under one key leaves
// other keys untouched and that repeated panics keep converting cleanly.
func TestFlightPanicRepeatable(t *testing.T) {
	f := NewFlight[int]()
	for i := 0; i < 3; i++ {
		_, _, err := f.Do(context.Background(), "boom", func() (int, error) { panic(i) })
		if !errors.Is(err, ErrPanicked) {
			t.Fatalf("round %d: err = %v, want ErrPanicked", i, err)
		}
	}
	v, _, err := f.Do(context.Background(), "ok", func() (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("other key after panics: v=%d err=%v", v, err)
	}
	if inFlight(f) != 0 {
		t.Fatalf("in-flight = %d", inFlight(f))
	}
}
