package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/server"
)

// The traced run. Its per-layer figures come from two sources:
//
// (a) server counters scraped from /stats and /metrics around a fixed-work
// load phase against the real processes (run.go, fleet.go): counts made by
// the program, which for a fixed op sequence repeat;
//
// (b) an in-process replay of the first ops of the workload, where each
// layer's public functions are called and timed from this file and from
// layers.go. Every timed call of the replay is a span {name, start, end,
// parent, op_id} kept in memory and written to out/trace-<workload>.json
// at the end; a layer's self time is its span minus its children. Spans
// inside the program are a later change.

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the start of the replay
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for an op
	Op     int    `json:"op_id"`
}

// tracer records spans. A nil tracer records nothing: the untraced replay,
// against which the cost of recording is measured.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// timed runs f inside a span and returns how long it took.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	s := t.begin(name, parent, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(s)
	return d
}

// timings collects the samples behind each per-layer timing. Adding to a
// nil timings does nothing.
type timings map[string][]float64

func (tm timings) add(name string, d time.Duration, unit time.Duration) {
	if tm != nil {
		tm[name] = append(tm[name], float64(d)/float64(unit))
	}
}

func (tm timings) put(name string, v float64) {
	if tm != nil {
		tm[name] = append(tm[name], v)
	}
}

// Fixed work of the traced run: ops per client in the load phase against
// the real processes (on miss-direct enough to overrun the 4096-entry
// result cache, so that evictions show), and ops replayed in-process.
var (
	traceLoadOps   = map[string]int{"hot-direct": 2048, "hot-routed": 2048, "miss-direct": 2400, "churn-direct": 2048}
	traceReplayOps = map[string]int{"hot-direct": 256, "hot-routed": 256, "miss-direct": 100, "churn-direct": 128}
)

// replayEnv is the in-process service the replay drives: the handler bvqd
// serves, configured with bvqd's flag defaults, plus this file's own copy
// of the database lineage and of each text's plan.
type replayEnv struct {
	w       *workload
	d       *driver
	dbs     []*database.Database
	handler http.Handler
	plans   map[int]*plan.Plan // texts the handler has planned already
	cached  map[int]bool       // texts whose result the handler holds
}

func newReplayEnv(w *workload, d *driver) (*replayEnv, error) {
	dbs, err := w.parseDatabases()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(bvqdDefaults(w, dbs))
	if err != nil {
		return nil, err
	}
	return &replayEnv{w: w, d: d, dbs: dbs, handler: srv.Handler(), plans: map[int]*plan.Plan{}, cached: map[int]bool{}}, nil
}

// bvqdDefaults is the server configuration cmd/bvqd's flag defaults give.
func bvqdDefaults(w *workload, dbs []*database.Database) server.Config {
	served := map[string]*database.Database{}
	for i, db := range dbs {
		served[w.graphs[i].name] = db
	}
	return server.Config{
		Databases:       served,
		DefaultTimeout:  10 * time.Second,
		MaxTimeout:      time.Minute,
		SlowQuery:       time.Second,
		TraceBufferSize: 256,
		TraceSample:     1,
	}
}

// serve sends one request to the in-process handler.
func (env *replayEnv) serve(path string, body []byte) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	env.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// onE0 reports whether query q reads the relation the churn workload
// updates.
func (w *workload) onE0(q int) bool {
	for _, r := range w.queries[q].rels {
		if r == 0 {
			return true
		}
	}
	return false
}

// replay runs the warm-up pass and then the first n ops of client 0's
// sequence through the in-process handler; after each op it calls the
// layers that op used once more from here, so that each has a span of its
// own. With a nil tracer and nil timings it does the same work and records
// nothing: the untraced reference. It returns the wall time of the n ops.
func (env *replayEnv) replay(n int, tr *tracer, tm timings) (time.Duration, error) {
	ctx := context.Background()
	cached := env.cached
	for _, o := range env.w.warm {
		path, body := env.d.request(o)
		if _, err := env.serve(path, body); err != nil {
			return 0, err
		}
		if o.kind == opUpdate {
			if err := env.applyLocal(ctx, o, nil, -1, 0, nil, false); err != nil {
				return 0, err
			}
			continue
		}
		cached[o.query] = true
		// Planning belongs to set-up here, but it is timed all the same: the
		// hot workloads have no other parse or compile to show.
		if err := env.planOf(o.query, nil, -1, 0, tm); err != nil {
			return 0, err
		}
	}
	seq := env.w.seqs[0]
	var wall time.Duration
	// What the handler itself reports having spent compiling and evaluating
	// an op is read between the ops, outside their spans; the rest of the
	// handler's time is the server's own.
	before, err := env.stageTime()
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		o := seq[i%len(seq)]
		path, body := env.d.request(o)
		opStart := time.Now()
		root := tr.begin("op", -1, i)
		h := tr.begin("server.handle", root, i)
		_, err := env.serve(path, body)
		handle := time.Since(opStart)
		tr.end(h)
		if err != nil {
			return 0, err
		}
		switch {
		case o.kind == opUpdate:
			tm.add("server.update_us", handle, time.Microsecond)
			if err := env.applyLocal(ctx, o, tr, root, i, tm, true); err != nil {
				return 0, err
			}
			// The server maintains cached fixpoints across an insert and
			// drops them on a delete.
			if verb, _ := env.w.churnWrite(o.write); verb == "delete" {
				for q := range cached {
					if env.w.onE0(q) {
						delete(cached, q)
					}
				}
			}
		case cached[o.query]:
			// A hit: nothing but the server's own work.
		default:
			// A windowed stream is never stored; everything else is.
			cached[o.query] = o.limit == 0
			if err := env.layers(ctx, o, tr, root, i, tm); err != nil {
				return 0, err
			}
			tm.add("server.handle_miss_us", handle, time.Microsecond)
		}
		tr.end(root)
		wall += time.Since(opStart)
		after, err := env.stageTime()
		if err != nil {
			return 0, err
		}
		if o.kind != opUpdate {
			tm.add("server.self_us", handle-(after-before), time.Microsecond)
		}
		before = after
	}
	return wall, nil
}

// stageTime is the handler's own running total of compile and eval stage
// time (its bvqd_stage_seconds histograms, read through GET /metrics).
// Repeating the evaluation from here would not do for this: two runs of one
// evaluation differ by more than the server adds around it.
func (env *replayEnv) stageTime() (time.Duration, error) {
	rec := httptest.NewRecorder()
	env.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := metrics.ParseText(rec.Body)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, fam := range fams {
		if fam.Name != "bvqd_stage_seconds" {
			continue
		}
		for _, s := range fam.Samples {
			if stage := s.Labels["stage"]; s.Name == "bvqd_stage_seconds_sum" && (stage == "compile" || stage == "eval") {
				total += s.Value
			}
		}
	}
	return time.Duration(total * float64(time.Second)), nil
}

// planOf parses and compiles text q the first time it is asked for, as the
// handler's plan cache does.
func (env *replayEnv) planOf(q int, tr *tracer, root, id int, tm timings) error {
	if env.plans[q] != nil {
		return nil
	}
	var parsed logic.Query
	var p *plan.Plan
	var err error
	parse := tr.timed("parser.parse", root, id, func() { parsed, err = parser.ParseQuery(env.w.queries[q].wire) })
	if err != nil {
		return err
	}
	compile := tr.timed("plan.compile", root, id, func() { p, err = plan.Compile(parsed) })
	if err != nil {
		return err
	}
	env.plans[q] = p
	tm.add("parser.parse_us", parse, time.Microsecond)
	tm.add("plan.compile_us", compile, time.Microsecond)
	tm.put("plan.nodes", float64(p.NumNodes()))
	return nil
}

// layers repeats, layer by layer, what the handler just did for an op it
// could not answer from its result cache: parse and compile (unless the
// handler had the plan), then evaluate.
func (env *replayEnv) layers(ctx context.Context, o op, tr *tracer, root, id int, tm timings) error {
	if err := env.planOf(o.query, tr, root, id, tm); err != nil {
		return err
	}
	p, db, opts := env.plans[o.query], env.dbs[env.w.queries[o.query].db], &eval.Options{}
	var err error
	if o.kind == opDrain && o.limit > 0 {
		d := tr.timed("eval.enum_first", root, id, func() {
			var en eval.Enumerator
			if en, _, err = eval.EvalPlanEnum(ctx, p, db, opts); err == nil {
				en.Next()
				err = en.Err()
				en.Close()
			}
		})
		tm.add("eval.enum_first_us", d, time.Microsecond)
		return err
	}
	_, route := eval.ExplainRoute(p, db, opts)
	if route != "sparse" {
		route = "dense" // a hybrid run is a dense run with sparse frontiers
	}
	var st *eval.Stats
	d := tr.timed("eval."+route, root, id, func() { _, st, err = eval.EvalPlanContext(ctx, p, db, opts) })
	if err != nil {
		return err
	}
	if st != nil && st.AcyclicFastPath > 0 {
		route = "acyclic"
		if tr != nil {
			tr.spans[len(tr.spans)-1].Name = "eval.acyclic"
		}
	}
	tm.add("eval."+route+"_ms", d, time.Millisecond)
	return nil
}

// applyLocal applies write o to this file's copy of the lineage, timing
// database.Apply, and on an insert compares the two ways a cached fixpoint
// can follow it: delta-restart maintenance from the state captured on the
// old snapshot, and evaluation from scratch on the new one.
func (env *replayEnv) applyLocal(ctx context.Context, o op, tr *tracer, root, id int, tm timings, compare bool) error {
	verb, e := env.w.churnWrite(o.write)
	up := database.Update{Relation: "E0"}
	if verb == "insert" {
		up.Insert = []relation.Tuple{{e[0], e[1]}}
	} else {
		up.Delete = []relation.Tuple{{e[0], e[1]}}
	}
	old := env.dbs[0]
	var next *database.Database
	var delta *database.Delta
	var err error
	d := tr.timed("database.apply", root, id, func() { next, delta, err = old.Apply([]database.Update{up}) })
	if err != nil {
		return err
	}
	if delta.Empty() {
		return fmt.Errorf("write %d (%s %v) changed nothing", o.write, verb, e)
	}
	env.dbs[0] = next
	tm.add("database.apply_us", d, time.Microsecond)
	if verb != "insert" || !compare {
		return nil
	}
	compared := 0
	for q := 0; q < len(env.w.queries) && compared < 2; q++ {
		p := env.plans[q]
		if p == nil || !env.w.onE0(q) || !eval.CanMaintain(p, delta) {
			continue
		}
		opts := &eval.Options{}
		_, _, state, err := eval.EvalPlanCapture(ctx, p, old, opts)
		if err != nil {
			return err
		}
		if state == nil {
			continue
		}
		compared++
		var maintained, fresh *relation.Set
		d := tr.timed("eval.maintain", root, id, func() { maintained, _, _, err = eval.EvalPlanMaintained(ctx, p, next, opts, state) })
		if err != nil {
			return err
		}
		tm.add("eval.maintain_ms", d, time.Millisecond)
		d = tr.timed("eval.recompute", root, id, func() { fresh, _, err = eval.EvalPlanContext(ctx, p, next, opts) })
		if err != nil {
			return err
		}
		tm.add("eval.recompute_ms", d, time.Millisecond)
		if !maintained.Equal(fresh) {
			return fmt.Errorf("maintained and recomputed answers differ for %s", env.w.queries[q].wire)
		}
	}
	return nil
}

// layerRow is one line of the per-workload layer table.
type layerRow struct {
	name            string
	count           int
	totalMS, selfMS float64
}

// layerTable folds the spans by name: count, total time, self time (a
// span minus its children).
func layerTable(spans []span) []layerRow {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerRow{}
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
		}
		r.count++
		r.totalMS += float64(s.End-s.Start) / 1e6
		r.selfMS += float64(s.End-s.Start-children[i]) / 1e6
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].totalMS > rows[j].totalMS })
	return rows
}

// hitProfile reads every cached text a few times and derives the cost of
// a result-cache hit in the handler: the median time, the allocations, and
// the slope of time over answer rows, which is the encoder's cost per row.
func (env *replayEnv) hitProfile(tm timings) error {
	var xs, ys []float64 // rows, best handler time in ns
	first := -1
	for q := 0; q < len(env.w.queries) && len(xs) < 64; q++ {
		if !env.cached[q] {
			continue
		}
		if first < 0 {
			first = q
		}
		best, rows := time.Duration(0), 0
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			rec, err := env.serve("/query", env.d.readBody[q])
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
			if err != nil {
				return err
			}
			rows, _ = intField(rec.Body.Bytes(), `"count":`)
		}
		xs, ys = append(xs, float64(rows)), append(ys, float64(best))
		tm.add("server.handle_hit_us", best, time.Microsecond)
	}
	if first < 0 {
		return fmt.Errorf("no cached text to profile")
	}
	tm.put("server.handle_hit_allocs", mallocsPerCall(200, func() { _, _ = env.serve("/query", env.d.readBody[first]) }))
	// Least squares: ns = a + slope·rows.
	mx, my := 0.0, 0.0
	for i := range xs {
		mx, my = mx+xs[i]/float64(len(xs)), my+ys[i]/float64(len(xs))
	}
	sxy, sxx := 0.0, 0.0
	for i := range xs {
		sxy, sxx = sxy+(xs[i]-mx)*(ys[i]-my), sxx+(xs[i]-mx)*(xs[i]-mx)
	}
	if sxx > 0 {
		tm.put("server.encode_ns_per_row", sxy/sxx)
	}
	return nil
}

// layerTimings produces every class-(b) figure of the traced run: the
// replay twice on fresh in-process services, untraced and traced (the
// difference is what recording costs), then the hit profile and the
// op-free timings of layers.go. It prints the layer table and writes the
// spans to out/trace-<workload>.json.
func layerTimings(p paths, w *workload, d *driver) (timings, error) {
	n := traceReplayOps[w.name]
	untraced := func() (time.Duration, error) {
		env, err := newReplayEnv(w, d)
		if err != nil {
			return 0, err
		}
		return env.replay(n, nil, nil)
	}
	// The first replay of a process is slower than any later one; it is
	// run and thrown away, so that the traced replay and the untraced one
	// after it differ by the recording alone.
	if _, err := untraced(); err != nil {
		return nil, err
	}
	env, err := newReplayEnv(w, d)
	if err != nil {
		return nil, err
	}
	tr, tm := &tracer{t0: time.Now()}, timings{}
	traced, err := env.replay(n, tr, tm)
	if err != nil {
		return nil, err
	}
	plain, err := untraced()
	if err != nil {
		return nil, err
	}
	tm.put("trace.overhead_share", (traced-plain).Seconds()/plain.Seconds())

	fmt.Printf("# %s: in-process replay of %d ops, %.1f ms traced, %.1f ms untraced\n",
		w.name, n, traced.Seconds()*1000, plain.Seconds()*1000)
	fmt.Printf("# %-18s %8s %12s %12s %8s\n", "layer", "count", "total ms", "self ms", "share")
	for _, r := range layerTable(tr.spans) {
		fmt.Printf("# %-18s %8d %12.3f %12.3f %7.1f%%\n", r.name, r.count, r.totalMS, r.selfMS, 100*r.selfMS/(traced.Seconds()*1000))
	}
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(p.out, "trace-"+w.name+".json"), raw, 0o644); err != nil {
		return nil, err
	}

	if err := env.hitProfile(tm); err != nil {
		return nil, err
	}
	if err := kernelTimings(w, tm); err != nil {
		return nil, err
	}
	canned, err := env.serve("/query", d.readBody[w.warm[0].query])
	if err != nil {
		return nil, err
	}
	if err := routerTimings(w, d, canned.Body.Bytes(), tm); err != nil {
		return nil, err
	}
	return tm, loopbackRTT(d, tm)
}
