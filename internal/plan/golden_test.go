package plan

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/compile_golden.txt from this run")

const goldenPath = "testdata/compile_golden.txt"

// planDigest renders every field of p a run reads — the nodes with their
// fixpoint details, dependency masks, per-binder schedules, frontiers and
// delta admissibility, the maintenance profile, the closed-node keys, the
// head and the narrowing — and hashes the rendering. The maintenance
// profile enters through InsertSafe/DeleteSafe over every relation the
// nodes name, not through its representation.
func planDigest(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vars %v head %v root %d minimized %d binders %d fixof %v cse %d\n",
		p.Vars, p.HeadAxes, p.Root, p.MinimizedFrom(), p.NumBinders, p.FixOf, p.CSEHits)
	var rels []string
	for n, nd := range p.Nodes {
		fmt.Fprintf(&b, "%d: op %d kids %v rel %q args %v binder %d eq %d,%d truth %t axis %d deps %x",
			n, nd.Op, nd.Kids, nd.Rel, nd.Args, nd.Binder, nd.L, nd.R, nd.Truth, nd.Axis, p.Deps[n])
		if fx := nd.Fix; fx != nil {
			fmt.Fprintf(&b, " fix{%v %q %d %d %v %v %v %v %d %x}",
				fx.Op, fx.Rel, fx.Binder, fx.Body, fx.VarAxes, fx.ParamAxes, fx.ExtCols, fx.ArgAxes, fx.ExtArity, fx.Scope)
		}
		if c := p.Closed[n]; c != nil {
			fmt.Fprintf(&b, " closed %x %v", c.Key, c.Rels)
		}
		b.WriteByte('\n')
		if nd.Op == OpAtom && nd.Binder < 0 {
			rels = append(rels, nd.Rel)
		}
	}
	for k := 0; k < p.NumBinders; k++ {
		fmt.Fprintf(&b, "binder %d: dirty %v sched %v pre %v delta %t\n",
			k, p.Dirty[k], p.Sched[k], p.PreEval[k], p.DeltaOK[k])
	}
	m := p.Maint
	fmt.Fprintf(&b, "maint %t seeded %v rels %v", m.OK, m.Seeded, m.Rels)
	slices.Sort(rels)
	for _, r := range slices.Compact(rels) {
		fmt.Fprintf(&b, " %s:%t/%t", r, m.InsertSafe(r), m.DeleteSafe(r))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:12])
}

// compileDigest parses and compiles text as a plan-cache miss does and
// digests the outcome: the plan, or the error that stopped it.
func compileDigest(text string) string {
	q, err := parser.ParseQuery(text)
	if err != nil {
		return "parse error: " + err.Error()
	}
	p, err := Compile(q)
	if err != nil {
		return "compile error: " + err.Error()
	}
	return planDigest(p)
}

// TestCompileGolden is the compiler's oracle: for every text of a fixed
// corpus — the benchmark generator's families and filters, the texts of the
// plan, eval and server test tables, bvqbench's rows and the examples — the
// compiled plan's digest equals the recorded one. A change to the compiler
// that keeps every plan keeps every line; one that moves a plan names its
// text. Lines are "digest<TAB>text"; an error outcome is recorded in full.
// Re-record with -update only when a plan is meant to change.
// Every text that compiles is compiled again renamed (renameVars).
func TestCompileGolden(t *testing.T) {
	entries := goldenEntries(t)
	if len(entries) < 300 {
		t.Fatalf("golden corpus has %d texts, want at least 300", len(entries))
	}
	var out strings.Builder
	r := rand.New(rand.NewSource(1))
	for _, e := range entries {
		got := compileDigest(e.text)
		if *updateGolden {
			fmt.Fprintf(&out, "%s\t%s\n", got, e.text)
		} else if got != e.digest {
			t.Errorf("%s:\n got  %s\n want %s", e.text, got, e.digest)
		}
		if strings.Contains(got, " error: ") {
			continue
		}
		// A plan does not depend on what its variables are called: under any
		// renaming, every plan is the same but for its axes' display names.
		q, _ := parser.ParseQuery(e.text)
		p, _ := Compile(q)
		for _, rename := range []func([]string) map[string]string{
			orderKept,
			func(names []string) map[string]string { return shuffled(names, r) },
		} {
			text, sigma := renameVars(e.text, rename)
			rq, err := parser.ParseQuery(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			rp, err := Compile(rq)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			for i, v := range p.Vars {
				if rp.Vars[i] != logic.Var(sigma[string(v)]) {
					t.Fatalf("%s: axis %d named %s, want %s", text, i, rp.Vars[i], sigma[string(v)])
				}
			}
			rp.Vars = p.Vars
			if d := planDigest(rp); d != got {
				t.Errorf("%s, renamed %s:\n got  %s\n want %s", e.text, text, d, got)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// varToken is an identifier, with the '(' that makes it a relation's name.
var varToken = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*\(?`)

// renameVars renames every variable of a query text — an identifier that is
// not a keyword and does not open an argument list — by the bijection rename
// makes of the text's variable names, which it returns beside the text.
func renameVars(text string, rename func(names []string) map[string]string) (string, map[string]string) {
	isVar := func(tok string) bool {
		return !strings.HasSuffix(tok, "(") && !slices.Contains([]string{"exists", "forall", "exists2", "lfp", "gfp", "ifp", "pfp", "true", "false"}, tok)
	}
	var names []string
	for _, tok := range varToken.FindAllString(text, -1) {
		if isVar(tok) && !slices.Contains(names, tok) {
			names = append(names, tok)
		}
	}
	sigma := rename(names)
	return varToken.ReplaceAllStringFunc(text, func(tok string) string {
		if isVar(tok) {
			return sigma[tok]
		}
		return tok
	}), sigma
}

// orderKept renames each name to a fresh one in the same order.
func orderKept(names []string) map[string]string {
	sigma := map[string]string{}
	for _, v := range names {
		sigma[v] = "q_" + v
	}
	return sigma
}

// shuffled renames the names to fresh ones in a random order.
func shuffled(names []string, r *rand.Rand) map[string]string {
	sigma := map[string]string{}
	for i, j := range r.Perm(len(names)) {
		sigma[names[i]] = fmt.Sprintf("w%d", j)
	}
	return sigma
}

type goldenEntry struct{ digest, text string }

// goldenEntries reads the corpus: lines "digest<TAB>text".
func goldenEntries(t *testing.T) []goldenEntry {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []goldenEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		digest, text, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		entries = append(entries, goldenEntry{digest, text})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}
