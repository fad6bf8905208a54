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
//   - Close ends the pass and is idempotent; the answer it read stays as it
//     was. Callers must Close every enumerator, on every path.
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
	e.stats.TuplesStreamed++
	return t, true
}

func (e *cursorEnum) Skip(n int) int {
	if e.err != nil || e.closed || n <= 0 {
		return 0
	}
	k := e.c.Skip(n)
	e.stats.TuplesSkipped += int64(k)
	return k
}

func (e *cursorEnum) Count() (int, bool) {
	if e.closed {
		return 0, false
	}
	return e.c.Count(), true
}

func (e *cursorEnum) Err() error { return e.err }

func (e *cursorEnum) Close() { e.closed = true }

// NewEnumerator is the Enumerator over a finished answer: what EvalPlan
// returned, a kept result, an exhibit engine's Set. A compact view
// (*relation.Sparse) and a head bitmap (*relation.Dense) open in O(1); a
// *relation.Set sorts its tuples first. stats may be nil: nothing is metered.
func NewEnumerator(ctx context.Context, v relation.View, stats *Stats) Enumerator {
	if stats == nil {
		stats = &Stats{}
	}
	return &cursorEnum{ctx: ctx, c: v.Cursor(), stats: stats}
}

// EvalPlanEnum is EvalPlan with the answer behind a metering enumerator: the
// evaluation has run in full, and what is deferred — and windowed — is the
// extraction. A dense head decodes its set bits as they are asked for
// (relation.DenseCursor; extraction was PR 3's dominant cost on large
// answers), a sparse head's sorted codes are walked in place.
//
// The returned Stats is final except for the streamed/skipped tuple counters,
// which the enumerator meters as it is consumed. Callers must Close the
// enumerator on every path.
func EvalPlanEnum(ctx context.Context, p *plan.Plan, db *database.Database, opts *Options) (Enumerator, *Stats, error) {
	v, stats, _, err := EvalPlan(ctx, p, db, opts, nil, false)
	if err != nil {
		return nil, stats, err
	}
	return NewEnumerator(ctx, v, stats), stats, nil
}
