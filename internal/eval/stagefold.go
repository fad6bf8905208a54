package eval

import (
	"sync"
	"time"
)

// FixStages is one fixpoint's stage totals, folded from its TraceEvents.
type FixStages struct {
	Engine, Fixpoint, Op string
	Binder               int // plan binder id; -1 from the plan-less engines
	Stages               int64
	Tuples               int   // the last stage's size
	DeltaTuples          int64 // Σ|Δ| over the stages
	HandOff              int   // the last stage a hand-off followed; 0 for none
	// Busy is the summed stage Elapsed, not wall time: concurrent sweep
	// workers overlap. First is when the first stage was reported.
	Busy  time.Duration
	First time.Time
}

// StageFold is the one consumer of a run's TraceEvents. Observe — the
// Options.Tracer to install — folds them per fixpoint, keyed by Binder, or by
// (engine, relation, op) for the plan-less engines' Binder -1, and logs the
// first logCap raw events. Stage traces, explain's binder totals and fixpoint
// spans are all read from the fold; like Stats and PlanProfile, its exported
// fields are safe to read only after the evaluation returns.
type StageFold struct {
	Fix       []FixStages  // per-fixpoint totals, in first-event order
	Log       []TraceEvent // the first logCap events
	Truncated bool         // more events arrived than Log holds

	mu       sync.Mutex
	byBinder []int // binder → index into Fix, plus one
	logCap   int
}

// NewStageFold returns an empty fold logging at most logCap raw events
// (0: totals only).
func NewStageFold(logCap int) *StageFold { return &StageFold{logCap: logCap} }

// Observe folds one stage. It meets the Options.Tracer contract: cheap, and
// safe for concurrent use.
func (f *StageFold) Observe(ev TraceEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.Log) < f.logCap {
		f.Log = append(f.Log, ev)
	} else if f.logCap > 0 {
		f.Truncated = true
	}
	i := -1
	if b := ev.Binder; b < 0 {
		for j := range f.Fix {
			if fx := &f.Fix[j]; fx.Binder < 0 && fx.Fixpoint == ev.Fixpoint && fx.Op == ev.Op && fx.Engine == ev.Engine {
				i = j
				break
			}
		}
	} else if b < len(f.byBinder) {
		i = f.byBinder[b] - 1
	}
	if i < 0 {
		i = len(f.Fix)
		f.Fix = append(f.Fix, FixStages{Engine: ev.Engine, Fixpoint: ev.Fixpoint, Op: ev.Op,
			Binder: ev.Binder, First: time.Now()})
		if b := ev.Binder; b >= 0 {
			for len(f.byBinder) <= b {
				f.byBinder = append(f.byBinder, 0)
			}
			f.byBinder[b] = i + 1
		}
	}
	fx := &f.Fix[i]
	fx.Stages++
	fx.Tuples = ev.Tuples
	fx.DeltaTuples += int64(max(ev.Delta, -ev.Delta))
	fx.Busy += ev.Elapsed
	if ev.HandOff {
		fx.HandOff = ev.Stage
	}
}
