package eval

import (
	"context"

	"repro/internal/database"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Enumerator streams a query answer one tuple at a time, in the canonical
// Set.Tuples (lexicographic) order regardless of which backend produced it.
// It is the evaluation stack's iterator API: callers pull tuples instead of
// receiving a materialized Set, so LIMIT-k requests stop the extraction after
// k tuples — the evaluation itself always runs to its head value — and
// per-request memory stays proportional to the window plus the compact head
// value rather than to |answer| decoded tuples.
//
// Contract:
//   - Next returns the next tuple; the Tuple is reused across calls, so
//     retain only clones. After false, call Err to distinguish clean
//     exhaustion (nil) from an early stop (context cancellation).
//   - Skip advances past up to n tuples without decoding them where the
//     representation allows (word popcounts on dense bitmaps, an index jump
//     on sparse code blocks) and returns how many were actually skipped.
//   - Count reports the exact full answer cardinality (dense popcount, sparse
//     length, materialized sets), whatever has been consumed; ok=false only
//     once the enumerator is closed.
//   - Close releases engine resources (pooled bitmaps) and is idempotent.
//     Callers must Close every enumerator, on every path.
//
// Enumerators are single-goroutine values, like the relation cursors they
// wrap.
type Enumerator interface {
	Next() (relation.Tuple, bool)
	Skip(n int) int
	Count() (int, bool)
	Err() error
	Close()
}

// ctxCheckEvery bounds how many tuples an enumerator yields between context
// checks: cancellation (client disconnect, server deadline) is noticed
// within this many Next calls.
const ctxCheckEvery = 1024

// cursorEnum adapts a cursor into an Enumerator: it meters streamed/skipped
// tuples into Stats and polls the context every ctxCheckEvery tuples.
type cursorEnum struct {
	ctx        context.Context
	c          relation.Cursor
	stats      *Stats
	err        error
	sinceCheck int
	closed     bool
}

func newCursorEnum(ctx context.Context, c relation.Cursor, stats *Stats) *cursorEnum {
	return &cursorEnum{ctx: ctx, c: c, stats: stats}
}

func (e *cursorEnum) Next() (relation.Tuple, bool) {
	if e.err != nil || e.closed {
		return nil, false
	}
	e.sinceCheck++
	if e.sinceCheck >= ctxCheckEvery {
		e.sinceCheck = 0
		if err := checkCtx(e.ctx); err != nil {
			e.err = err
			return nil, false
		}
	}
	t, ok := e.c.Next()
	if !ok {
		return nil, false
	}
	e.stats.addTuplesStreamed(1)
	return t, true
}

func (e *cursorEnum) Skip(n int) int {
	if e.err != nil || e.closed || n <= 0 {
		return 0
	}
	k := e.c.Skip(n)
	e.stats.addTuplesSkipped(int64(k))
	return k
}

func (e *cursorEnum) Count() (int, bool) {
	if e.closed {
		return 0, false
	}
	return e.c.Count(), true
}

func (e *cursorEnum) Err() error { return e.err }

func (e *cursorEnum) Close() {
	if !e.closed {
		e.closed = true
		e.c.Close()
	}
}

// NewEnumerator is the Enumerator over an already-finished answer: a cached
// result, or what a materializing engine returned. A compact view
// (*relation.Sparse) opens in O(1); a *relation.Set sorts its tuples first.
// stats may be nil.
func NewEnumerator(ctx context.Context, v relation.View, stats *Stats) Enumerator {
	return newCursorEnum(ctx, v.Cursor(), stats)
}

// EvalPlanEnum evaluates a compiled plan and returns a streaming enumerator
// over the answer, routed by backend exactly like EvalPlanContext — it is the
// same evaluation (evalPlan) ending in a cursor over the head value instead
// of its materialization:
//
//   - dense routes run the full evaluation, project the root onto the head
//     space word-parallel, and stream by decoding set bits lazily
//     (relation.DenseCursor) — extraction, PR 3's dominant cost on large
//     answers, is deferred and windowed;
//   - the sparse route streams the materialized head codes directly
//     (relation.SparseCursor), skipping the Set round-trip.
//
// The returned Stats is final except for the streamed/skipped tuple counters,
// which the enumerator meters as it is consumed. Callers must Close the
// enumerator on every path.
func EvalPlanEnum(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) (Enumerator, *Stats, error) {
	res, err := evalPlan(ctx, p, db, opts, nil, false, true)
	return res.enum, res.stats, err
}

// EvalPlanEnumCapture is EvalPlanEnum capturing maintenance state (nil for a
// plan without seedable binders), so streamed evaluations can register cache
// entries that survive database churn exactly like EvalPlanCapture results.
func EvalPlanEnumCapture(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) (Enumerator, *Stats, *MaintState, error) {
	res, err := evalPlan(ctx, p, db, opts, nil, true, true)
	return res.enum, res.stats, res.state, err
}
