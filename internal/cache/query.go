package cache

import (
	"strconv"

	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Plan is a parsed query with its width precomputed — everything the server
// needs before dispatching to an engine. Plans are immutable and shared
// between requests.
type Plan struct {
	Query logic.Query
	Width int
	// Prepared is the compiled DAG plan for the query, built once per cache
	// entry and reused by every request running the compiled engine (the
	// plan is immutable; all evaluation state is per-run). It is nil when the
	// query lies outside the compilable fragment — the compiled engine then
	// recompiles per request and surfaces the real error.
	Prepared *plan.Plan
}

// PlanCache memoizes parse + width computation, keyed by the exact query
// text. A hit skips the parser entirely.
type PlanCache struct {
	lru *LRU[Plan]
}

// NewPlanCache returns a plan cache holding at most max plans.
func NewPlanCache(max int) *PlanCache { return &PlanCache{lru: NewLRU[Plan](max)} }

// Load returns the plan for text, parsing and caching on a miss. The second
// result reports whether the plan came from the cache. Parse errors are not
// cached: a failing query re-parses on every attempt, which keeps the cache
// free of negative entries at the cost of re-tokenizing garbage.
func (c *PlanCache) Load(text string) (Plan, bool, error) {
	if p, ok := c.lru.Get(text); ok {
		return p, true, nil
	}
	q, err := parser.ParseQuery(text)
	if err != nil {
		return Plan{}, false, err
	}
	p := Plan{Query: q, Width: q.Width()}
	if compiled, err := plan.Compile(q); err == nil {
		p.Prepared = compiled
	}
	c.lru.Put(text, p)
	return p, false, nil
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int { return c.lru.Len() }

// Counters returns cumulative hit, miss and eviction counts.
func (c *PlanCache) Counters() (hits, misses, evictions int64) { return c.lru.Counters() }

// Result is a finished evaluation: the (immutable, shared) answer and the
// work statistics of the run that produced it. bvqd stores answers compacted
// (relation.Compact): a hit then opens a cursor without sorting.
type Result struct {
	Answer relation.View
	Stats  *eval.Stats // nil for engines that do not report statistics
}

// ResultCache memoizes evaluation results keyed by ResultKey. Soundness
// rests on two invariants: database snapshots are immutable values — a tuple
// update produces a new snapshot with a new fingerprint (database.Apply), so
// the fingerprint pins the content — and every engine is deterministic (so
// the first answer is the only answer). Cached Answers must be treated as
// read-only by all consumers.
type ResultCache struct {
	lru *LRU[Result]
}

// NewResultCache returns a result cache holding at most max results.
func NewResultCache(max int) *ResultCache { return &ResultCache{lru: NewLRU[Result](max)} }

// Get returns the cached result for key.
func (c *ResultCache) Get(key string) (Result, bool) { return c.lru.Get(key) }

// Put stores a result under key.
func (c *ResultCache) Put(key string, r Result) { c.lru.Put(key, r) }

// Len returns the number of cached results.
func (c *ResultCache) Len() int { return c.lru.Len() }

// Counters returns cumulative hit, miss and eviction counts.
func (c *ResultCache) Counters() (hits, misses, evictions int64) { return c.lru.Counters() }

// ResultKey builds the canonical result-cache key from everything that can
// change an answer: the database content (fingerprint), the engine, the
// answer-affecting options, and the query text. Options.Parallelism is
// deliberately excluded — the parallel PFP sweep's merge is deterministic,
// so requests differing only in worker count share one cache line. The
// relation backend IS included even though backends agree on answers: the
// cached Stats describe one run's representation choices, and serving a
// dense run's statistics to a backend=sparse request would misreport.
func ResultKey(fingerprint uint64, engine string, opts *eval.Options, queryText string) string {
	var o eval.Options
	if opts != nil {
		o = *opts
	}
	// "%016x|%s|%d|%d|%d|%s|%d|%s", appended into one sized buffer: the key
	// is built on every request, hits included.
	bk := o.Backend.String()
	b := make([]byte, 0, 16+len(engine)+len(bk)+len(queryText)+32)
	hex := strconv.AppendUint(make([]byte, 0, 16), fingerprint, 16)
	b = append(append(b, "0000000000000000"[len(hex):]...), hex...)
	b = append(append(b, '|'), engine...)
	for _, v := range [...]int{o.MaxWidth, o.PFPBudget, int(o.PFPCycle)} {
		b = strconv.AppendInt(append(b, '|'), int64(v), 10)
	}
	b = append(append(b, '|'), bk...)
	b = strconv.AppendInt(append(b, '|'), int64(o.SparseBudget), 10)
	b = append(append(b, '|'), queryText...)
	return string(b)
}
