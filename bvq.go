// Package bvq is a query-evaluation engine for bounded-variable relational
// queries, reproducing Moshe Y. Vardi, "On the Complexity of
// Bounded-Variable Queries" (PODS 1995).
//
// The paper studies the four query languages FO (relational calculus),
// FP (fixpoint logic), ESO (existential second-order logic) and PFP
// (partial-fixpoint logic), and shows that restricting queries to k
// individual variables — so that every intermediate result is a k-ary,
// polynomial-size relation — collapses their expression and combined
// complexity towards their data complexity. This package exposes the
// corresponding machinery:
//
//   - databases (ParseDatabase / NewDatabase) and queries
//     (ParseQuery / ParseFormula);
//   - evaluation engines: EngineBottomUp (the Prop. 3.1 bounded-variable
//     algorithm for FO/FP/PFP), EngineNaive (the generic exponential-time
//     baseline), EngineMonotone (the alternation-free l·nᵏ fast path),
//     EngineESO (Lemma 3.6 arity reduction + grounding + SAT),
//     EngineCertified (the Theorem 3.5 prover/verifier pair),
//     EngineCompiled (hash-consed query plans with hoisting and semi-naive
//     fixpoints — what bvqd and the bvq command run unless told otherwise).
//     EngineBottomUp, EngineMonotone and EngineCertified are one formula
//     walker under three rules for a fixpoint that is reached again: start
//     over (n^{kl} stages), resume where it stopped (l·nᵏ), or take the next
//     element of a guessed chain and check it (NP ∩ co-NP);
//   - Theorem 3.5 certificates: FindCertificate / VerifyCertificate /
//     NegateQuery realize the NP ∩ co-NP bound for FPᵏ.
//
// Subsystems with their own APIs live under internal/: the µ-calculus
// model checker (internal/mucalc), the hardness reductions
// (internal/pathsys, internal/qbf, internal/prop, internal/boolexpr), the
// Lemma 4.2 parenthesis-grammar machinery (internal/grammar), the
// conjunctive-query rewriter (internal/queryopt: GYO acyclicity, the §5
// variable minimisation EngineCompiled applies, and the naive 10-ary
// cross-product plan of §1), and the SAT solver (internal/sat).
package bvq

import (
	"context"
	"fmt"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/eval/eso"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/queryopt"
	"repro/internal/relation"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Database is a relational database (D; R₁, …, R_ℓ). Each Database is
	// an immutable snapshot value; Database.Apply expresses mutation by
	// returning a new snapshot plus the effective Delta (copy-on-write,
	// MVCC-style — holders of the old snapshot are unaffected).
	Database = database.Database
	// Builder assembles a Database.
	Builder = database.Builder
	// Update is one relation's tuple-level change in a Database.Apply call.
	Update = database.Update
	// Delta is the effective difference between a database snapshot and
	// the snapshot Apply returned.
	Delta = database.Delta
	// Query is (x̄)φ — a head tuple and a body formula.
	Query = logic.Query
	// Formula is a formula of FO/FP/ESO/PFP.
	Formula = logic.Formula
	// Var is an individual variable.
	Var = logic.Var
	// Relation is a set of tuples (a query answer).
	Relation = relation.Set
	// Tuple is a tuple of domain elements.
	Tuple = relation.Tuple
	// Certificate is a Theorem 3.5 witness for an FPᵏ evaluation.
	Certificate = eval.Certificate
	// Stats reports evaluation work.
	Stats = eval.Stats
	// Options configures evaluation (width bound, PFP budget, cycle mode).
	Options = eval.Options
)

// NewDatabase returns a database builder.
func NewDatabase() *Builder { return database.NewBuilder() }

// ParseDatabase reads the textual database format:
//
//	domain = {0, 1, 2}
//	E/2 = {(0, 1), (1, 2)}
func ParseDatabase(text string) (*Database, error) { return database.Parse(text) }

// ParseQuery parses "(x, y). exists z. E(x, z) & E(z, y)".
func ParseQuery(text string) (Query, error) { return parser.ParseQuery(text) }

// ParseFormula parses a formula of the concrete syntax, including fixpoints
// "[lfp S(x). P(x) | S(x)](u)" and second-order quantifiers
// "exists2 S/2. …".
func ParseFormula(text string) (Formula, error) { return parser.ParseFormula(text) }

// Width returns the number of distinct individual variables of q: q is an
// Lᵏ query exactly when Width(q) ≤ k (§2.2 of the paper).
func Width(q Query) int { return q.Width() }

// Engine selects an evaluation algorithm.
type Engine int

const (
	// EngineBottomUp is Proposition 3.1: every subformula denotes one
	// width-ary dense relation. Supports FO, FP and PFP.
	EngineBottomUp Engine = iota
	// EngineNaive is the generic assignment-recursion baseline (all four
	// languages; ESO by capped enumeration). Exponential time, trusted.
	EngineNaive
	// EngineMonotone is the alternation-free FP fast path (l·nᵏ).
	EngineMonotone
	// EngineESO evaluates prenex existential second-order queries via the
	// Lemma 3.6 arity reduction, polynomial grounding, and CDCL SAT.
	EngineESO
	// EngineCertified evaluates an FP query through the Theorem 3.5
	// prover/verifier pair: FindCertificate computes the answer and emits a
	// witness, VerifyCertificate replays it, and the two must agree.
	EngineCertified
	// EngineCompiled lowers the query to a hash-consed DAG plan
	// (internal/plan) and evaluates it incrementally: recursion-free
	// subtrees are computed once and LFP/IFP stages run semi-naive on stage
	// deltas, one stage at a time on the caller's goroutine. Supports FO,
	// FP, IFP and PFP with answers byte-identical to EngineBottomUp.
	EngineCompiled
)

func (e Engine) String() string {
	switch e {
	case EngineBottomUp:
		return "bottomup"
	case EngineNaive:
		return "naive"
	case EngineMonotone:
		return "monotone"
	case EngineESO:
		return "eso"
	case EngineCertified:
		return "certified"
	case EngineCompiled:
		return "compiled"
	}
	return "unknown"
}

// EngineByName resolves an engine name as used by the CLI.
func EngineByName(name string) (Engine, error) {
	for _, e := range []Engine{EngineBottomUp, EngineNaive, EngineMonotone, EngineESO, EngineCertified, EngineCompiled} {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("bvq: unknown engine %q (want bottomup, naive, monotone, eso, certified or compiled)", name)
}

// Eval evaluates q against db with the selected engine. The answer is a
// relation over domain indices 0..n−1 (use Database.Value to map back to
// the raw domain). Eval is EvalContext with context.Background — the
// original, uncancellable entry point.
func Eval(q Query, db *Database, engine Engine) (*Relation, error) {
	ans, _, err := EvalStats(q, db, engine, nil)
	return ans, err
}

// EvalContext is Eval honoring a context: cancellation and deadlines are
// observed at iteration boundaries (between fixpoint stages for
// EngineBottomUp, EngineMonotone, EngineCompiled and both passes of
// EngineCertified, between head assignments and fixpoint stages for
// EngineNaive; EngineESO only before it starts), so a returned answer is
// always byte-identical to an uncancelled run. When the
// context fires, the error wraps ctx.Err(); test for it with
// errors.Is(err, context.DeadlineExceeded) or context.Canceled.
func EvalContext(ctx context.Context, q Query, db *Database, engine Engine) (*Relation, error) {
	ans, _, err := EvalStatsContext(ctx, q, db, engine, nil)
	return ans, err
}

// EvalStats is Eval with options and work statistics (statistics may be nil
// for engines that do not report them).
func EvalStats(q Query, db *Database, engine Engine, opts *Options) (*Relation, *Stats, error) {
	return EvalStatsContext(context.Background(), q, db, engine, opts)
}

// EvalStatsContext is EvalContext with options and work statistics. When the
// context fires mid-evaluation, the returned Stats — where the engine
// reports them — hold the work completed up to the cancellation point (a
// partial reading; the answer is nil).
func EvalStatsContext(ctx context.Context, q Query, db *Database, engine Engine, opts *Options) (*Relation, *Stats, error) {
	switch engine {
	case EngineBottomUp:
		return eval.BottomUpContext(ctx, q, db, opts)
	case EngineNaive:
		ans, err := eval.NaiveContext(ctx, q, db)
		return ans, nil, err
	case EngineMonotone:
		return eval.MonotoneContext(ctx, q, db, opts)
	case EngineCompiled:
		return eval.CompiledContext(ctx, q, db, opts)
	case EngineESO:
		// The grounding+SAT pipeline has no internal cancellation points;
		// honor an already-expired context before starting.
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("bvq: cancelled: %w", err)
		}
		ans, err := eso.Eval(q, db)
		return ans, nil, err
	case EngineCertified:
		cert, res, err := eval.FindCertificate(ctx, q, db)
		if err != nil {
			return nil, certStats(res), err
		}
		ver, err := eval.VerifyCertificate(ctx, q, db, cert)
		if err != nil {
			return nil, certStats(ver), err
		}
		if !ver.Answer.Equal(res.Answer) {
			return nil, nil, fmt.Errorf("bvq: verifier answer differs from prover answer")
		}
		return ver.Answer, &ver.Stats, nil
	default:
		return nil, nil, fmt.Errorf("bvq: unknown engine %d", engine)
	}
}

// certStats is the partial reading a failed prover or verifier pass leaves.
func certStats(res *eval.CertResult) *Stats {
	if res == nil {
		return nil
	}
	return &res.Stats
}

// Enumerator streams a query answer one tuple at a time in the canonical
// (lexicographic) tuple order; see eval.Enumerator for the full contract.
// Callers must Close every enumerator, and should clone tuples they retain.
type Enumerator = eval.Enumerator

// EvalEnumContext evaluates q and returns a streaming enumerator over its
// answer. EngineCompiled evaluates to its compact head value and streams
// from that — dense denotations decode their answer bits lazily, the sparse
// executor streams sorted head codes. The other engines materialize as usual
// and stream the finished answer; either way the evaluation has run in full
// before the first tuple, the enumerator knows its Count, and the tuple
// sequence is byte-identical to EvalStatsContext's Answer.Tuples().
//
// The returned Stats (nil for engines that do not report them) is final
// except for the streamed/skipped tuple counts, which move as the enumerator
// is consumed.
func EvalEnumContext(ctx context.Context, q Query, db *Database, engine Engine, opts *Options) (Enumerator, *Stats, error) {
	if engine == EngineCompiled {
		p, err := plan.Compile(q)
		if err != nil {
			return nil, nil, err
		}
		return eval.EvalPlanEnum(ctx, p, db, opts)
	}
	ans, st, err := EvalStatsContext(ctx, q, db, engine, opts)
	if err != nil {
		return nil, st, err
	}
	return eval.NewEnumerator(ctx, ans, st), st, nil
}

// Holds evaluates a sentence (a Boolean query) with the given engine.
func Holds(f Formula, db *Database, engine Engine) (bool, error) {
	return HoldsContext(context.Background(), f, db, engine)
}

// HoldsContext is Holds honoring a context (see EvalContext for the
// cancellation granularity).
func HoldsContext(ctx context.Context, f Formula, db *Database, engine Engine) (bool, error) {
	q, err := logic.NewQuery(nil, f)
	if err != nil {
		return false, err
	}
	ans, err := EvalContext(ctx, q, db, engine)
	if err != nil {
		return false, err
	}
	return ans.Len() > 0, nil
}

// FindCertificate proves q's answer and emits a Theorem 3.5 certificate:
// one increasing chain of under-approximations per greatest-fixpoint node.
func FindCertificate(q Query, db *Database) (*Certificate, *Relation, error) {
	cert, res, err := eval.FindCertificate(context.Background(), q, db)
	if err != nil {
		return nil, nil, err
	}
	return cert, res.Answer, nil
}

// VerifyCertificate replays q's evaluation using the certificate's chains,
// checking the Lemma 3.3 post-fixpoint condition at every use; it runs in
// l·nᵏ fixpoint stages. The returned answer is always a subset of the true
// answer, and equals it for certificates from FindCertificate.
func VerifyCertificate(q Query, db *Database, cert *Certificate) (*Relation, error) {
	res, err := eval.VerifyCertificate(context.Background(), q, db, cert)
	if err != nil {
		return nil, err
	}
	return res.Answer, nil
}

// NegateQuery returns the complement query (the co-NP half of Thm 3.5).
func NegateQuery(q Query) (Query, error) { return eval.NegateQuery(q) }

// Conjunctive-query optimization (§1/§5 of the paper).
type (
	// ConjunctiveQuery is answer(Head) ← Atoms.
	ConjunctiveQuery = queryopt.CQ
	// CQAtom is one conjunct of a conjunctive query.
	CQAtom = queryopt.Atom
)

// MinimizeWidth returns a conjunctive query's direct first-order form
// (ConjunctiveQuery.ToFO) as EngineCompiled scopes it — each ∃ over exactly
// the conjuncts that need it, the paper's §5 "variable minimization" — and
// the width of its plan, the most variables live at once, which bounds every
// intermediate's arity (names are kept: the query's Width is the text's).
func MinimizeWidth(q *ConjunctiveQuery) (Query, int, error) {
	fo, err := q.ToFO()
	if err != nil {
		return Query{}, 0, err
	}
	p, err := plan.Compile(fo)
	if err != nil {
		return Query{}, 0, err
	}
	return logic.Query{Head: fo.Head, Body: p.Body}, len(p.Vars), nil
}
