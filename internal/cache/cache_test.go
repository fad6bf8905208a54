package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/eval"
)

func TestLRUBasics(t *testing.T) {
	l := NewLRU[int](2)
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	l.Put("a", 1)
	l.Put("b", 2)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	l.Put("c", 3)
	if _, ok := l.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := l.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	hits, misses, evictions := l.Counters()
	if hits != 2 || misses != 2 || evictions != 1 {
		t.Fatalf("counters = %d/%d/%d", hits, misses, evictions)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestLRUPutRefreshes(t *testing.T) {
	l := NewLRU[int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("a", 10) // refresh, not insert
	l.Put("c", 3)  // must evict b, not a
	if v, ok := l.Get("a"); !ok || v != 10 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	if _, ok := l.Get("b"); ok {
		t.Fatal("b survived")
	}
}

func TestLRUZeroCapacityDisables(t *testing.T) {
	l := NewLRU[int](0)
	l.Put("a", 1)
	if _, ok := l.Get("a"); ok {
		t.Fatal("disabled cache returned a value")
	}
	if l.Len() != 0 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestPlanCacheSkipsReparse(t *testing.T) {
	pc := NewPlanCache(8)
	const text = "(x, y). exists z. E(x, z) & E(z, y)"
	p1, cached, err := pc.Load(text)
	if err != nil || cached {
		t.Fatalf("first load: cached=%v err=%v", cached, err)
	}
	if p1.Width != 3 {
		t.Fatalf("width = %d", p1.Width)
	}
	p2, cached, err := pc.Load(text)
	if err != nil || !cached {
		t.Fatalf("second load: cached=%v err=%v", cached, err)
	}
	if fmt.Sprint(p2.Query.Body) != fmt.Sprint(p1.Query.Body) {
		t.Fatal("cached plan differs")
	}
	hits, misses, _ := pc.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("counters = %d/%d", hits, misses)
	}
	// Parse errors are not cached.
	if _, _, err := pc.Load("(x). Nope("); err == nil {
		t.Fatal("bad query parsed")
	}
	if pc.Len() != 1 {
		t.Fatalf("len = %d", pc.Len())
	}
}

func TestResultKeyDistinguishesAnswersOnly(t *testing.T) {
	db1 := database.NewBuilder().Domain(0, 1).Relation("E", 2).Add("E", 0, 1).MustBuild()
	db2 := database.NewBuilder().Domain(0, 1).Relation("E", 2).Add("E", 1, 0).MustBuild()
	const q = "(x). exists y. E(x, y)"
	k1 := ResultKey(db1.Fingerprint(), "bottomup", nil, q)
	if k2 := ResultKey(db2.Fingerprint(), "bottomup", nil, q); k1 == k2 {
		t.Fatal("different databases share a key")
	}
	if k2 := ResultKey(db1.Fingerprint(), "naive", nil, q); k1 == k2 {
		t.Fatal("different engines share a key")
	}
	if k2 := ResultKey(db1.Fingerprint(), "bottomup", &eval.Options{MaxWidth: 2}, q); k1 == k2 {
		t.Fatal("different width bounds share a key")
	}
}

// TestResultKeyFormat pins the hand-appended key byte for byte, against
// literals and against the fmt.Sprintf of its format.
func TestResultKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		fp     uint64
		engine string
		opts   *eval.Options
		text   string
		want   string
	}{
		{0, "bottomup", nil, "", "0000000000000000|bottomup|0|0|auto|"},
		{0xdeadbeef, "compiled", &eval.Options{}, "(x). P(x)", "00000000deadbeef|compiled|0|0|auto|(x). P(x)"},
		{^uint64(0), "naive", &eval.Options{MaxWidth: 3, PFPCycle: eval.CycleBrent, Backend: eval.BackendSparse,
			Observe: eval.NewObserver(1, true)},
			"(x, y). E(x, y) | x = y", "ffffffffffffffff|naive|3|1|sparse|(x, y). E(x, y) | x = y"},
		{0x0123456789abcdef, "compiled", &eval.Options{MaxWidth: -1, Backend: eval.BackendDense}, "ünï|çode",
			"0123456789abcdef|compiled|-1|0|dense|ünï|çode"},
	} {
		got := ResultKey(tc.fp, tc.engine, tc.opts, tc.text)
		if got != tc.want {
			t.Errorf("ResultKey(%#x, %q, %+v, %q) = %q, want %q", tc.fp, tc.engine, tc.opts, tc.text, got, tc.want)
		}
		var o eval.Options
		if tc.opts != nil {
			o = *tc.opts
		}
		if fmtKey := fmt.Sprintf("%016x|%s|%d|%d|%s|%s", tc.fp, tc.engine, o.MaxWidth,
			o.PFPCycle, o.Backend, tc.text); got != fmtKey {
			t.Errorf("ResultKey = %q, the format string gives %q", got, fmtKey)
		}
	}
}

func TestFingerprintStableAndContentSensitive(t *testing.T) {
	build := func() *database.Database {
		return database.NewBuilder().Domain(3, 5, 7).Relation("E", 2).Add("E", 3, 5).Add("E", 5, 7).MustBuild()
	}
	if build().Fingerprint() != build().Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	other := database.NewBuilder().Domain(3, 5, 7).Relation("E", 2).Add("E", 3, 5).MustBuild()
	if build().Fingerprint() == other.Fingerprint() {
		t.Fatal("fingerprint insensitive to tuples")
	}
	renamed := database.NewBuilder().Domain(3, 5, 7).Relation("F", 2).Add("F", 3, 5).Add("F", 5, 7).MustBuild()
	if build().Fingerprint() == renamed.Fingerprint() {
		t.Fatal("fingerprint insensitive to relation names")
	}
}

func TestFlightCoalesces(t *testing.T) {
	f := NewFlight[int]()
	const workers = 16
	var calls atomic.Int64
	var leaders, started atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Add(1)
			v, shared, err := f.Do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				<-release // hold the call open so everyone piles up
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
			if !shared {
				leaders.Add(1)
			}
		}()
	}
	// Wait until the leader is inside fn and every worker has reached Do (a
	// worker that arrived after the release would lead a flight of its own),
	// with a grace period for the last ones to join the flight.
	for inFlight(f) == 0 || started.Load() < workers {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times", got)
	}
	if got := leaders.Load(); got != 1 {
		t.Fatalf("%d leaders", got)
	}
	if inFlight(f) != 0 {
		t.Fatalf("in-flight = %d after drain", inFlight(f))
	}
}

func TestFlightFollowerHonorsContext(t *testing.T) {
	f := NewFlight[int]()
	block := make(chan struct{})
	go f.Do(context.Background(), "k", func() (int, error) {
		<-block
		return 1, nil
	})
	for inFlight(f) == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := f.Do(ctx, "k", func() (int, error) { return 2, nil })
	if !shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower: shared=%v err=%v", shared, err)
	}
	close(block)
}

func TestFlightDistinctKeysRunConcurrently(t *testing.T) {
	f := NewFlight[string]()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := f.Do(context.Background(), key, func() (string, error) {
				return key, nil
			})
			if err != nil || shared || v != key {
				t.Errorf("key %s: v=%q shared=%v err=%v", key, v, shared, err)
			}
		}()
	}
	wg.Wait()
}
