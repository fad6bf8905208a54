// Command bvq evaluates a bounded-variable query against a database.
//
// Usage:
//
//	bvq -db employees.db -query '(x, y). exists z. E(x, z) & E(z, y)' \
//	    [-engine bottomup|naive|monotone|eso|certified|compiled] [-k 3] [-stats] \
//	    [-stream] [-limit N] [-offset N]
//
// The database file uses the textual format of bvq.ParseDatabase:
//
//	domain = {0, 1, 2}
//	E/2 = {(0, 1), (1, 2)}
//
// The answer is printed as a tuple list in raw domain values. With -stats,
// evaluation statistics (intermediate arities and sizes, fixpoint
// iterations) are printed to stderr. With -k, the query is rejected unless
// its width is at most k — the Lᵏ membership check.
//
// With -stream, the answer is produced through the streaming enumeration
// API: the query is evaluated to its compact head value, tuples print as they
// decode, and with -limit the decoding stops after the window instead of
// materializing the full answer. -limit/-offset also window the answer
// without -stream (the window is cut after materialization there).
//
// With -explain, the query is compiled and executed on the compiled engine
// (another -engine is refused) and the annotated plan DAG is printed instead
// of the answer: per node the
// operator, evaluation count and cumulative wall time; per fixpoint binder
// the stages run and delta tuples; plus the density decision and the
// backend route the evaluator picked (dense or sparse). An acyclic
// conjunctive query written with more variables than it needs shows the
// minimised plan that ran ("minimized: width 8 → 3").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/relation"
)

func main() {
	var (
		dbPath  = flag.String("db", "", "database file (textual format); required")
		query   = flag.String("query", "", "query text '(x, y). formula'; required unless -query-file")
		qFile   = flag.String("query-file", "", "file containing the query")
		engine  = flag.String("engine", "compiled", "engine: bottomup, naive, monotone, eso, certified, compiled")
		k       = flag.Int("k", 0, "reject queries of width > k (0: no bound)")
		stats   = flag.Bool("stats", false, "print evaluation statistics to stderr")
		showIdx = flag.Bool("indices", false, "print domain indices instead of raw values")
		stream  = flag.Bool("stream", false, "stream tuples through the enumeration API (limit stops extraction early)")
		limit   = flag.Int("limit", 0, "print at most N answer tuples (0: all)")
		offset  = flag.Int("offset", 0, "skip the first N answer tuples")
		explain = flag.Bool("explain", false, "run on the compiled engine and print the annotated plan tree instead of the answer")
	)
	flag.Parse()
	if *explain {
		if err := runExplain(*dbPath, *query, *qFile, *engine, *k, *stream, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bvq:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*dbPath, *query, *qFile, *engine, *k, *stats, *showIdx, *stream, *limit, *offset, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bvq:", err)
		os.Exit(1)
	}
}

func run(dbPath, query, qFile, engineName string, k int, stats, showIdx, stream bool, limit, offset int, stdout, stderr io.Writer) error {
	if err := checkFlags(dbPath, k); err != nil {
		return err
	}
	if limit < 0 || offset < 0 {
		return fmt.Errorf("-limit and -offset must be ≥ 0")
	}
	db, q, err := loadInputs(dbPath, query, qFile)
	if err != nil {
		return err
	}
	eng, err := bvq.EngineByName(engineName)
	if err != nil {
		return err
	}
	var opts *bvq.Options
	if k > 0 {
		opts = &bvq.Options{MaxWidth: k}
	}
	if stream {
		return runStream(q, db, eng, opts, stats, showIdx, limit, offset, stdout, stderr)
	}
	ans, st, err := bvq.EvalStats(q, db, eng, opts)
	if err != nil {
		return err
	}
	if stats {
		printStats(stderr, eng, q, db, st)
	}
	if q.Arity() == 0 {
		verdict := "false"
		if ans.Len() > 0 {
			verdict = "true"
		}
		return emit(stdout, verdict)
	}
	en := eval.NewEnumerator(context.Background(), ans, nil)
	defer en.Close()
	if _, _, err := printWindow(en, db, showIdx, limit, offset, stdout); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%d tuple(s)\n", ans.Len())
	return nil
}

// printWindow prints en's OFFSET/LIMIT window, one tuple per line. It
// reports the tuples skipped and printed.
func printWindow(en eval.Enumerator, db *bvq.Database, showIdx bool, limit, offset int, stdout io.Writer) (skipped, printed int, err error) {
	if offset > 0 {
		skipped = en.Skip(offset)
	}
	for limit == 0 || printed < limit {
		t, ok := en.Next()
		if !ok {
			return skipped, printed, en.Err()
		}
		if err := emit(stdout, renderLine(t, db, showIdx)); err != nil {
			return skipped, printed, err
		}
		printed++
	}
	return skipped, printed, nil
}

// checkFlags refuses what bvqd's /query refuses with a 400: no database,
// and a negative width bound.
func checkFlags(dbPath string, k int) error {
	if dbPath == "" {
		return fmt.Errorf("missing -db")
	}
	if k < 0 {
		return fmt.Errorf("invalid -k %d: must be ≥ 0 (0 means unbounded)", k)
	}
	return nil
}

// loadInputs reads and parses the database file and the query text (inline
// or from -query-file).
func loadInputs(dbPath, query, qFile string) (*bvq.Database, bvq.Query, error) {
	text, err := os.ReadFile(dbPath)
	if err != nil {
		return nil, bvq.Query{}, err
	}
	db, err := bvq.ParseDatabase(string(text))
	if err != nil {
		return nil, bvq.Query{}, err
	}
	if query == "" && qFile != "" {
		qt, err := os.ReadFile(qFile)
		if err != nil {
			return nil, bvq.Query{}, err
		}
		query = strings.TrimSpace(string(qt))
	}
	if query == "" {
		return nil, bvq.Query{}, fmt.Errorf("missing -query or -query-file")
	}
	q, err := bvq.ParseQuery(query)
	if err != nil {
		return nil, bvq.Query{}, err
	}
	return db, q, nil
}

// runExplain compiles the query, executes it on the compiled engine under an
// observer that times nodes, and prints the annotated plan tree — the CLI
// twin of the server's "explain": true request mode.
func runExplain(dbPath, query, qFile, engineName string, k int, stream bool, stdout, stderr io.Writer) error {
	if err := checkFlags(dbPath, k); err != nil {
		return err
	}
	if stream {
		return fmt.Errorf("-explain and -stream are mutually exclusive")
	}
	eng, err := bvq.EngineByName(engineName)
	if err != nil {
		return err
	}
	if eng != bvq.EngineCompiled {
		return fmt.Errorf("explain requires the compiled engine (got %q): only compiled queries have a plan DAG", engineName)
	}
	db, q, err := loadInputs(dbPath, query, qFile)
	if err != nil {
		return err
	}
	p, err := plan.Compile(q)
	if err != nil {
		return err
	}
	opts := &eval.Options{MaxWidth: k, Observe: eval.NewObserver(0, true)}
	ans, _, err := eval.EvalPlanContext(context.Background(), p, db, opts)
	if err != nil {
		return err
	}
	eval.Explain(p, db, opts).Render(stdout)
	fmt.Fprintf(stderr, "%d tuple(s)\n", ans.Len())
	return nil
}

// runStream prints the answer through the enumeration API: tuples printed as
// they decode from the compact head value, and LIMIT stopping the extraction
// early.
func runStream(q bvq.Query, db *bvq.Database, eng bvq.Engine, opts *bvq.Options, stats, showIdx bool, limit, offset int, stdout, stderr io.Writer) error {
	en, st, err := bvq.EvalEnumContext(context.Background(), q, db, eng, opts)
	if err != nil {
		return err
	}
	defer en.Close()
	if q.Arity() == 0 {
		verdict := "false"
		if _, ok := en.Next(); ok {
			verdict = "true"
		}
		if err := en.Err(); err != nil {
			return err
		}
		return emit(stdout, verdict)
	}
	cnt, _ := en.Count()
	skipped, printed, err := printWindow(en, db, showIdx, limit, offset, stdout)
	if err != nil {
		return err
	}
	if stats {
		printStats(stderr, eng, q, db, st)
	}
	fmt.Fprintf(stderr, "%d tuple(s), %d streamed, %d skipped\n", cnt, printed, skipped)
	return nil
}

func printStats(stderr io.Writer, eng bvq.Engine, q bvq.Query, db *bvq.Database, st *bvq.Stats) {
	fmt.Fprintf(stderr, "engine=%s width=%d domain=%d\n", eng, bvq.Width(q), db.Size())
	if st != nil {
		fmt.Fprintf(stderr, "subformula evals=%d fixpoint iterations=%d max intermediate arity=%d max intermediate tuples=%d\n",
			st.SubformulaEvals, st.FixIterations, st.MaxIntermediateArity, st.MaxIntermediateTuples)
	}
}

// emit writes one answer line and surfaces the write error, so a broken
// pipe or full disk fails the run (exit 1) instead of silently truncating
// the answer with exit status 0.
func emit(stdout io.Writer, line string) error {
	if _, err := fmt.Fprintln(stdout, line); err != nil {
		return fmt.Errorf("writing answer: %w", err)
	}
	return nil
}

func renderLine(t relation.Tuple, db *bvq.Database, showIdx bool) string {
	if showIdx {
		return t.String()
	}
	raw := make(relation.Tuple, len(t))
	for i, v := range t {
		raw[i] = db.Value(v)
	}
	return raw.String()
}
