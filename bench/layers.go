package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/router"
)

// The layer timings that need no op sequence: each calls one public
// function of one module in a loop, on data of the workload at hand, and
// reports the median call.

// medianCall times f reps times and returns the median duration.
func medianCall(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// mallocsPerCall is the process-wide allocation count per call of f: f must
// be the only thing running.
func mallocsPerCall(reps int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// kernelTimings measures the relation, bitset, cache and database layers on
// the workload's own databases: the dense kernels on its smallest (width 3,
// as every query here), the sparse operators and the database functions on
// its largest.
func kernelTimings(w *workload, tm timings) error {
	small, large := 0, 0
	for i, g := range w.graphs {
		if g.n < w.graphs[small].n {
			small = i
		}
		if g.n > w.graphs[large].n {
			large = i
		}
	}
	dbs, err := w.parseDatabases()
	if err != nil {
		return err
	}
	dbSmall, dbLarge := dbs[small], dbs[large]
	e0, err := dbSmall.Rel("E0")
	if err != nil {
		return err
	}
	e1, err := dbSmall.Rel("E1")
	if err != nil {
		return err
	}
	sp, err := relation.NewSpace(3, dbSmall.Size())
	if err != nil {
		return err
	}
	a, err := sp.FromAtom(e0, []int{0, 1})
	if err != nil {
		return err
	}
	b, err := sp.FromAtom(e1, []int{1, 2})
	if err != nil {
		return err
	}
	const reps = 201
	scratch := a.Clone()
	tm.add("relation.dense_and_ns", medianCall(reps, func() { scratch.IntersectWith(b) }), time.Nanosecond)
	scratch.Copy(a)
	scratch.IntersectWith(b)
	tm.add("relation.dense_exists_axis_ns", medianCall(reps, func() { scratch.ExistsAxis(1).Release() }), time.Nanosecond)

	l0, err := dbLarge.Rel("E0")
	if err != nil {
		return err
	}
	l1, err := dbLarge.Rel("E1")
	if err != nil {
		return err
	}
	s0, err := relation.SparseFromSet(l0, dbLarge.Size())
	if err != nil {
		return err
	}
	s1, err := relation.SparseFromSet(l1, dbLarge.Size())
	if err != nil {
		return err
	}
	tm.add("relation.sparse_intersect_ns", medianCall(reps, func() { s0.Intersect(s1) }), time.Nanosecond)
	tm.add("relation.project_ns", medianCall(reps, func() { s0.Project([]int{1}) }), time.Nanosecond)

	const kword = 64 * 1024 // bits in 1024 words
	x, y := bitset.New(kword), bitset.New(kword)
	for i := 0; i < kword; i += 7 {
		y.Set(i)
	}
	tm.add("bitset.or_ns_per_kword", medianCall(reps, func() { x.Or(y) }), time.Nanosecond)

	// The result cache at the server's default capacity, full.
	rc := cache.NewResultCache(4096)
	fp := dbSmall.Fingerprint()
	opts := &eval.Options{}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = cache.ResultKey(fp, "compiled", opts, fmt.Sprintf("%s #%d", w.queries[i%len(w.queries)].wire, i))
		rc.Put(keys[i], cache.Result{Answer: e0})
	}
	i := 0
	tm.add("cache.result_get_ns", medianCall(4096, func() { rc.Get(keys[i%len(keys)]); i += 61 }), time.Nanosecond)
	tm.add("cache.result_put_ns", medianCall(4096, func() { rc.Put(keys[i%len(keys)], cache.Result{Answer: e1}); i += 61 }), time.Nanosecond)
	text := w.queries[0].wire
	tm.add("cache.key_ns", medianCall(4096, func() { cache.ResultKey(fp, "compiled", opts, text) }), time.Nanosecond)

	tm.add("database.fingerprint_ns", medianCall(reps, func() { dbLarge.Fingerprint() }), time.Nanosecond)
	tm.add("database.parse_ms", medianCall(9, func() { _, err = database.Parse(w.dbText[large]) }), time.Millisecond)
	return err
}

// routerTimings measures the router layer in-process: router.New(cfg)'s
// handler in front of three stub replicas that answer every /query with a
// canned body. The hop is the handler's time minus the stub's own;
// connections accepted by the stubs are the upstream dials.
func routerTimings(w *workload, d *driver, canned []byte, tm timings) error {
	var stubNS, dials atomic.Int64
	var urls []string
	for i := 0; i < 3; i++ {
		s := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			_, _ = io.Copy(io.Discard, r.Body)
			rw.Header().Set("Content-Type", "application/json")
			_, _ = rw.Write(canned)
			stubNS.Add(int64(time.Since(t0)))
		}))
		s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		s.Start()
		defer s.Close()
		urls = append(urls, s.URL)
	}
	// cmd/bvqrouter's flag defaults, minus the health loop: nothing here
	// fails, and a probe would count as a dial.
	rt, err := router.New(router.Config{Replicas: urls, Retries: 1, MaxRetryWait: 3 * time.Second})
	if err != nil {
		return err
	}
	defer rt.Close()
	handler := rt.Handler()
	hop := func(q int) error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(d.readBody[q]))
		req.Header.Set("Content-Type", "application/json")
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), canned) {
			return fmt.Errorf("router stub hop: status %d, %d body bytes for %d canned", rec.Code, rec.Body.Len(), len(canned))
		}
		return nil
	}
	texts := min(len(w.queries), 64)
	// Every text once, so that each stub has its connection.
	for q := 0; q < texts; q++ {
		if err := hop(q); err != nil {
			return err
		}
	}
	const reps = 512
	var hopErr error
	var samples []float64
	for i := 0; i < reps; i++ {
		before := stubNS.Load()
		t0 := time.Now()
		if err := hop(i % texts); err != nil {
			hopErr = err
		}
		samples = append(samples, float64(int64(time.Since(t0))-(stubNS.Load()-before))/1e3)
	}
	if hopErr != nil {
		return hopErr
	}
	tm.put("router.hop_us", median(samples))
	i := 0
	tm.put("router.hop_allocs", mallocsPerCall(reps, func() { _ = hop(i % texts); i++ }))

	// Dials in the steady state under the benchmark's own concurrency: the
	// closed loop's clients at once, 1000 hops each.
	dials.Store(0)
	clients := len(w.seqs)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = hop((c*31 + i) % texts)
			}
		}(c)
	}
	wg.Wait()
	tm.put("router.upstream_dials_per_kop", float64(dials.Load())/float64(clients))

	ring := router.NewRing(0, urls)
	key := router.QueryKey(w.graphs[0].name, w.queries[0].wire)
	tm.add("router.ring_lookup_ns", medianCall(2001, func() { ring.Lookup(key, 0) }), time.Nanosecond)
	return nil
}

// loopbackRTT is an HTTP round trip to a handler that does nothing, through
// the benchmark's own client: the floor under every latency it reports.
func loopbackRTT(d *driver, tm timings) error {
	s := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	defer s.Close()
	var rtErr error
	rtt := medianCall(1001, func() {
		resp, err := d.client.Post(s.URL, "application/json", bytes.NewReader(d.readBody[0]))
		if err != nil {
			rtErr = err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	tm.add("client.loopback_rtt_us", rtt, time.Microsecond)
	return rtErr
}
