package eval

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logic"
)

// reachQuery is the width-3 lfp reachability query used throughout the
// tests: elements reachable from P along E.
func reachQuery() logic.Query {
	body := logic.Or(
		logic.R("P", "x"),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x")), "z"))
	return logic.MustQuery([]logic.Var{"u"}, logic.Lfp("S", []logic.Var{"x"}, body, "u"))
}

func TestContextExpiredBeforeEval(t *testing.T) {
	db := lineGraph(t, 8)
	q := reachQuery()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := BottomUpContext(ctx, q, db, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("BottomUpContext after cancel: err = %v, want context.Canceled", err)
	}
	if _, err := NaiveContext(ctx, q, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("NaiveContext after cancel: err = %v, want context.Canceled", err)
	}
	if _, _, err := MonotoneContext(ctx, q, db, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("MonotoneContext after cancel: err = %v, want context.Canceled", err)
	}
	if _, _, err := FindCertificate(ctx, q, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindCertificate after cancel: err = %v, want context.Canceled", err)
	}
}

// TestContextDeadlineMidPFP starts the exponentially long binary-counter PFP
// run with a deadline far shorter than the run and checks that evaluation
// stops between stages: the error reports the deadline, the returned Stats
// hold the partial iteration count, and the whole call returns orders of
// magnitude before the 2^18 stages would complete.
func TestContextDeadlineMidPFP(t *testing.T) {
	q := counterQuery()
	db := orderedDomain(t, 18) // 2^18 stages — seconds of work
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	ans, st, err := BottomUpContext(ctx, q, db, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if ans != nil {
		t.Fatalf("cancelled evaluation returned an answer")
	}
	if st == nil || st.FixIterations == 0 {
		t.Fatalf("partial stats missing: %+v", st)
	}
	// Generous bound: the check fires at the next stage boundary, each stage
	// being microseconds here.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestContextParallelSweepCancels checks that PFP sweeps running beside each
// other all observe cancellation.
func TestContextParallelSweepCancels(t *testing.T) {
	// A parametrized PFP (free variable y in the body) forces the sweep.
	body := logic.Or(
		logic.R("S", "x"),
		logic.Exists(logic.And(logic.R("E", "z", "x"),
			logic.And(logic.R("E", "z", "y"),
				logic.Exists(logic.And(logic.Equal("x", "z"), logic.R("S", "x")), "x"))), "z"))
	q := logic.MustQuery([]logic.Var{"u", "y"}, logic.Pfp("S", []logic.Var{"x"}, body, "u"))
	db := randomGraph(t, rand.New(rand.NewSource(7)), 24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	concurrently(4, func(i int) {
		if _, _, err := BottomUpContext(ctx, q, db, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("sweep %d: err = %v, want context.Canceled", i, err)
		}
	})
}

// TestContextAnswerUnchanged verifies that evaluating under a live context
// produces exactly the same answer and counters as the background-context
// path — the determinism requirement for transparent caching.
func TestContextAnswerUnchanged(t *testing.T) {
	db := randomGraph(t, rand.New(rand.NewSource(3)), 16)
	q := reachQuery()
	plain, pst, err := BottomUpStats(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ctxAns, cst, err := BottomUpContext(ctx, q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(ctxAns) {
		t.Fatalf("answers differ with a live context")
	}
	if pst.FixIterations != cst.FixIterations || pst.SubformulaEvals != cst.SubformulaEvals {
		t.Fatalf("stats differ: %+v vs %+v", pst, cst)
	}
}

// firesAfter is a context whose Err turns context.Canceled after a set number
// of checks: the walker checks once on admission and once per stage, so this
// cancels inside a fixpoint deterministically.
type firesAfter struct {
	context.Context
	left *int32
}

func cancelAfter(checks int32) firesAfter {
	return firesAfter{Context: context.Background(), left: &checks}
}

func (c firesAfter) Err() error {
	if atomic.AddInt32(c.left, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCertifiedCancelsInsideFixpoint is the bug the shared walker fixes: the
// prover and the verifier used to run to completion whatever the context
// said. Cancelled inside a fixpoint they stop at the next stage boundary with
// the work done so far.
func TestCertifiedCancelsInsideFixpoint(t *testing.T) {
	q := logic.MustQuery([]logic.Var{"x"}, alternatingFormula(3))
	db := lineGraph(t, 12)
	cert, full, err := FindCertificate(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	const checks = 5 // one on admission, four stages
	c, res, err := FindCertificate(cancelAfter(checks), q, db)
	if !errors.Is(err, context.Canceled) || c != nil {
		t.Fatalf("prover: cert %v, err %v, want context.Canceled", c, err)
	}
	if res == nil || res.Answer != nil || res.Stats.FixIterations == 0 || res.Stats.FixIterations >= checks ||
		res.Stats.FixIterations >= full.Stats.FixIterations {
		t.Fatalf("prover: partial result %+v (a full run takes %d stages)", res, full.Stats.FixIterations)
	}
	ver, err := VerifyCertificate(cancelAfter(checks), q, db, cert)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("verifier: err %v, want context.Canceled", err)
	}
	if ver == nil || ver.Answer != nil || ver.Stats.FixIterations == 0 || ver.Stats.FixIterations >= checks {
		t.Fatalf("verifier: partial result %+v", ver)
	}
}
