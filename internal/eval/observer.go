package eval

import "time"

// FixStages is one fixpoint's stage totals, folded from its TraceEvents.
type FixStages struct {
	Engine, Fixpoint, Op string
	Binder               int // plan binder id; -1 from the plan-less engines
	Stages               int64
	Tuples               int   // the last stage's size
	DeltaTuples          int64 // Σ|Δ| over the stages
	HandOff              int   // the last stage a hand-off followed; 0 for none
	// Busy is the summed stage Elapsed. First is when the first stage started.
	Busy  time.Duration
	First time.Time
}

// Observer is the one instrument of a run, installed as Options.Observe. It
// folds the run's stages per fixpoint into Fix, keyed by Binder, or by
// (engine, relation, op) for the plan-less engines' Binder -1, and, when
// built with nodes, counts the plan executor's node computations in Evals and
// NS, sized by the run from its plan. Explain's node and binder totals and
// fixpoint spans are read from it. The evaluation reports from its own
// goroutine; like Stats, its exported fields are safe to read only after it
// returns. A nil Observer costs nothing: the engines hoist the nil check out
// of the stage work. Observing never changes answers, so it is excluded from
// result-cache keys.
type Observer struct {
	Fix []FixStages // per-fixpoint totals, in first-event order
	// Evals[n] counts plan node n's computations (cache misses, not visits);
	// NS[n] is their wall time in nanoseconds. Time is INCLUSIVE: a node
	// computed on demand inside another node's computation is charged to
	// both. The formula walker has no plan nodes.
	Evals, NS []int64

	byBinder []int // binder → index into Fix, plus one
	nodes    bool
	onStage  func(TraceEvent) // a test's hook, run after each stage is folded
}

// NewObserver returns an observer that times plan nodes only when nodes is
// set: explain's per-node profile costs two clock reads per node computation.
// An observer serves one evaluation.
func NewObserver(nodes bool) *Observer { return &Observer{nodes: nodes} }

// observerOf resolves Options.Observe (nil Options means no observer).
func observerOf(opts *Options) *Observer {
	if opts == nil {
		return nil
	}
	return opts.Observe
}

// timesNodes reports whether runs time their node computations for o.
func (o *Observer) timesNodes() bool { return o != nil && o.nodes }

// sizeNodes grows the node counters, if o keeps them, to a plan of n nodes.
// A run calls it before it computes any node.
func (o *Observer) sizeNodes(n int) {
	if o.timesNodes() && len(o.Evals) < n {
		o.Evals = append(o.Evals, make([]int64, n-len(o.Evals))...)
		o.NS = append(o.NS, make([]int64, n-len(o.NS))...)
	}
}

// node records one computation of plan node n that took d.
func (o *Observer) node(n int, d time.Duration) {
	o.Evals[n]++
	o.NS[n] += d.Nanoseconds()
}

// stage folds one completed stage.
func (o *Observer) stage(ev TraceEvent) {
	i := -1
	if b := ev.Binder; b < 0 {
		for j := range o.Fix {
			if fx := &o.Fix[j]; fx.Binder < 0 && fx.Fixpoint == ev.Fixpoint && fx.Op == ev.Op && fx.Engine == ev.Engine {
				i = j
				break
			}
		}
	} else if b < len(o.byBinder) {
		i = o.byBinder[b] - 1
	}
	if i < 0 {
		i = len(o.Fix)
		o.Fix = append(o.Fix, FixStages{Engine: ev.Engine, Fixpoint: ev.Fixpoint, Op: ev.Op,
			Binder: ev.Binder, First: time.Now().Add(-ev.Elapsed)})
		if b := ev.Binder; b >= 0 {
			for len(o.byBinder) <= b {
				o.byBinder = append(o.byBinder, 0)
			}
			o.byBinder[b] = i + 1
		}
	}
	fx := &o.Fix[i]
	fx.Stages++
	fx.Tuples = ev.Tuples
	fx.DeltaTuples += int64(max(ev.Delta, -ev.Delta))
	fx.Busy += ev.Elapsed
	if ev.HandOff {
		fx.HandOff = ev.Stage
	}
	if o.onStage != nil {
		o.onStage(ev)
	}
}
