package cache

import (
	"strconv"
	"sync"

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
	// Footprint is logic.Footprint of the body, compiled or not: the database
	// relations the query reads, the argument of the database.ContentID that
	// result keys hold.
	Footprint []string
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
	p := Plan{Query: q}
	if compiled, err := plan.Compile(q); err == nil { // it holds the footprint and the width too
		p.Prepared, p.Footprint, p.Width = compiled, compiled.Maint.Rels, max(compiled.MinimizedFrom, len(compiled.Vars))
	} else {
		p.Width, p.Footprint = q.Width(), logic.Footprint(q.Body)
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
// (relation.Compact): a hit then opens a cursor without sorting, or writes the
// Text the first hit rendered.
type Result struct {
	Answer relation.View
	Stats  *eval.Stats // nil for engines that do not report statistics
	// State, set by compiled runs of a maintainable plan, is what
	// delta-restart maintenance resumes from when the content after an
	// update misses the cache.
	State *eval.MaintState
	// Text holds the answer's wire rendering once a hit has asked for it; nil
	// for an entry stored without a holder.
	Text *Text
}

// Text is a cached answer's rendered rows beside its codes: filled by the
// first Load and read-only after, so every later hit writes the same bytes.
// A new answer needs a new Text; one whose answer and key stay keeps its own.
type Text struct {
	once   sync.Once
	rows   []byte // nil: nothing rendered
	domain []int  // the domain whose values rows spells
}

// Load returns the rows and the domain they were rendered over, calling render
// for them on the first call only; concurrent first calls wait for it.
func (t *Text) Load(render func() (rows []byte, domain []int)) ([]byte, []int) {
	t.once.Do(func() { t.rows, t.domain = render() })
	return t.rows, t.domain
}

// ResultCache memoizes evaluation results keyed by ResultKey. Soundness
// rests on two invariants: the key's content component identifies everything
// of the database the query can read (database.ContentID, which no update
// can make mean something else), and every engine is deterministic (so the
// first answer is the only answer). Cached Answers must be treated as
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

// Peek returns the result stored under key, counting nothing and moving
// nothing (LRU.Peek).
func (c *ResultCache) Peek(key string) (Result, bool) { return c.lru.Peek(key) }

// Len returns the number of cached results.
func (c *ResultCache) Len() int { return c.lru.Len() }

// Counters returns cumulative hit, miss and eviction counts.
func (c *ResultCache) Counters() (hits, misses, evictions int64) { return c.lru.Counters() }

// ResultKey builds the canonical result-cache key from everything that can
// change an answer: the content the query reads (database.ContentID of its
// footprint), the engine, the answer-affecting options, and the query text.
// Options.Observe and Options.Nodes are excluded: observing a run and sharing
// node values change no answer. The relation backend IS included even though backends
// agree on answers: the cached Stats describe one run's representation
// choices, and serving a dense run's statistics to a backend=sparse request
// would misreport.
func ResultKey(content uint64, engine string, opts *eval.Options, queryText string) string {
	var o eval.Options
	if opts != nil {
		o = *opts
	}
	// "%016x|%s|%d|%d|%s|%s", appended into one sized buffer: the key is
	// built on every request, hits included.
	bk := o.Backend.String()
	b := make([]byte, 0, 16+len(engine)+len(bk)+len(queryText)+32)
	b = append(append(appendContent(b, content), '|'), engine...)
	b = strconv.AppendInt(append(b, '|'), int64(o.MaxWidth), 10)
	b = strconv.AppendInt(append(b, '|'), int64(o.PFPCycle), 10)
	b = append(append(b, '|'), bk...)
	b = append(append(b, '|'), queryText...)
	return string(b)
}

// WithContent returns key with its content component replaced: the key the
// same request mints against a snapshot whose footprint content is content.
func WithContent(key string, content uint64) string {
	return string(append(appendContent(make([]byte, 0, len(key)), content), key[16:]...))
}

// appendContent appends "%016x" of content.
func appendContent(b []byte, content uint64) []byte {
	hex := strconv.AppendUint(make([]byte, 0, 16), content, 16)
	return append(append(b, "0000000000000000"[len(hex):]...), hex...)
}
