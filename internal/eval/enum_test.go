// Streaming differential: for random FP/IFP formulas over random databases,
// draining an Enumerator must reproduce the materialized answer
// byte-identically — same tuples, same (lexicographic) order — on every
// backend route, and mid-stream cancellation must stop the stream with a reported error.
package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/queryopt"
	"repro/internal/relation"
)

func drainEnum(t *testing.T, en Enumerator) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for tp, ok := en.Next(); ok; tp, ok = en.Next() {
		out = append(out, tp.Clone())
	}
	return out
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestEnumStreamedMatchesMaterialized is the core guarantee of the
// enumeration API: for 200 random formulas × {dense, sparse, auto}, the
// streamed concatenation equals EvalPlanContext's answer exactly, a
// Skip(k) enumerator yields exactly the suffix, and the two paths agree on
// which evaluations fail.
func TestEnumStreamedMatchesMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	g := &diffGen{r: r}
	backends := []Backend{BackendDense, BackendSparse, BackendAuto}
	kept := 0
	for trial := 0; trial < 2000 && kept < 200; trial++ {
		f := g.formula(3, nil)
		if logic.Validate(f, nil) != nil {
			continue
		}
		q, err := logic.NewQuery(logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil {
			continue
		}
		kept++
		db := randomGraph(t, r, 2+r.Intn(4))
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		for _, b := range backends {
			opts := &Options{Backend: b}
			want, _, wantErr := EvalPlanContext(context.Background(), p, db, opts)
			en, _, enErr := EvalPlanEnum(context.Background(), p, db, opts)
			if (wantErr == nil) != (enErr == nil) {
				t.Fatalf("%s backend %d: materialized err=%v, enum err=%v", q, b, wantErr, enErr)
			}
			if wantErr != nil {
				continue
			}
			wantTuples := want.Tuples()
			if cnt, ok := en.Count(); ok && cnt != len(wantTuples) {
				t.Fatalf("%s backend %d: Count=%d, want %d", q, b, cnt, len(wantTuples))
			}
			got := drainEnum(t, en)
			if en.Err() != nil {
				t.Fatalf("%s backend %d: enum error: %v", q, b, en.Err())
			}
			en.Close()
			if !sameTuples(got, wantTuples) {
				t.Fatalf("%s backend %d: streamed %v != materialized %v", q, b, got, wantTuples)
			}

			// OFFSET pushdown: Skip(k) then drain = the materialized suffix.
			if len(wantTuples) > 0 {
				k := r.Intn(len(wantTuples) + 1)
				en2, _, err := EvalPlanEnum(context.Background(), p, db, opts)
				if err != nil {
					t.Fatalf("%s backend %d: re-enum: %v", q, b, err)
				}
				if sk := en2.Skip(k); sk != k {
					t.Fatalf("%s backend %d: Skip(%d)=%d", q, b, k, sk)
				}
				rest := drainEnum(t, en2)
				en2.Close()
				if !sameTuples(rest, wantTuples[k:]) {
					t.Fatalf("%s backend %d: after Skip(%d) got %v, want %v", q, b, k, rest, wantTuples[k:])
				}
			}
		}
	}
	if kept < 200 {
		t.Fatalf("generator kept only %d/200 formulas; tighten it", kept)
	}
}

// completeGraph returns K_n as a binary relation E plus unary P over the
// full domain — a database whose 2-hop answer has n² tuples.
func completeGraph(t *testing.T, n int) *database.Database {
	t.Helper()
	b := database.NewBuilder()
	b.Relation("E", 2)
	b.Relation("P", 1)
	for i := 0; i < n; i++ {
		b.Domain(i)
		b.Add("P", i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Add("E", i, j)
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func twoHop(t *testing.T) logic.Query {
	t.Helper()
	f := logic.Exists(logic.And(logic.R("E", "x", "z"), logic.R("E", "z", "y")), "z")
	return logic.MustQuery([]logic.Var{"x", "y"}, f)
}

// TestEnumCancellationMidStream cancels the context after the first tuple on
// each backend route and checks the stream stops with a reported error
// rather than running to exhaustion (the 2-hop answer has 3600 tuples, past
// the enumerators' context-check strides).
func TestEnumCancellationMidStream(t *testing.T) {
	db := completeGraph(t, 60)
	p, err := plan.Compile(twoHop(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{BackendDense, BackendSparse} {
		ctx, cancel := context.WithCancel(context.Background())
		en, _, err := EvalPlanEnum(ctx, p, db, &Options{Backend: b})
		if err != nil {
			t.Fatalf("backend %d: %v", b, err)
		}
		if _, ok := en.Next(); !ok {
			t.Fatalf("backend %d: no first tuple", b)
		}
		cancel()
		yielded := 1
		for _, ok := en.Next(); ok; _, ok = en.Next() {
			yielded++
			if yielded > 3600 {
				break
			}
		}
		if yielded > 3600 {
			t.Fatalf("backend %d: stream ran to exhaustion after cancel", b)
		}
		if en.Err() == nil {
			t.Fatalf("backend %d: Err is nil after cancellation", b)
		}
		en.Close()
	}
}

// TestEnumAcyclicFastPath: every open enumerator reports its Count — there
// is no route left that streams without knowing the answer's size — on a
// width-minimal 2-hop CQ and on a 4-hop chain written with five variables,
// which compiles to its minimised width-3 plan (Stats.AcyclicFastPath).
func TestEnumAcyclicFastPath(t *testing.T) {
	db := completeGraph(t, 12)
	chain, err := queryopt.ChainCQ(4).ToFO()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []logic.Query{twoHop(t), chain} {
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := EvalPlanContext(context.Background(), p, db, &Options{Backend: BackendDense})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []Backend{BackendAuto, BackendDense, BackendSparse} {
			en, st, err := EvalPlanEnum(context.Background(), p, db, &Options{Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			en.Skip(5)
			if n, ok := en.Count(); !ok || n != want.Len() {
				t.Fatalf("%s backend %s: Count = %d, %v; want %d", q, b, n, ok, want.Len())
			}
			got := drainEnum(t, en)
			en.Close()
			if _, ok := en.Count(); ok {
				t.Fatalf("%s backend %s: closed enumerator reported a Count", q, b)
			}
			if minimized := p.MinimizedFrom > 0; (st.AcyclicFastPath == 1) != minimized {
				t.Fatalf("%s backend %s: AcyclicFastPath = %d, plan minimized: %v", q, b, st.AcyclicFastPath, minimized)
			}
			if st.TuplesStreamed != int64(len(got)) || st.TuplesSkipped != 5 {
				t.Fatalf("streamed %d skipped %d, want %d and 5", st.TuplesStreamed, st.TuplesSkipped, len(got))
			}
			if !sameTuples(got, want.Tuples()[5:]) {
				t.Fatalf("%s backend %s: stream diverged from the dense answer", q, b)
			}
		}
	}
}
