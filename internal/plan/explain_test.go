package plan

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/parser"
)

func tcExplain(t *testing.T) *Explain {
	t.Helper()
	p, err := Compile(tcQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	den := p.Density(10, func(string) int { return 20 })
	return p.Explain(den)
}

func TestExplainShape(t *testing.T) {
	ex := tcExplain(t)
	if ex.Width != 3 {
		t.Fatalf("Width = %d, want 3 (x, y, z)", ex.Width)
	}
	if ex.Domain != 10 {
		t.Fatalf("Domain = %d, want 10", ex.Domain)
	}
	if len(ex.Binders) != 1 {
		t.Fatalf("got %d binders, want 1", len(ex.Binders))
	}
	b := ex.Binders[0]
	if b.Op != "lfp" || b.Rel != "T" || !b.DeltaOK {
		t.Fatalf("binder = %+v, want lfp T with DeltaOK", b)
	}
	if b.SchedNodes == 0 {
		t.Fatalf("binder schedule empty: %+v", b)
	}
	if ex.Executed {
		t.Fatal("Executed = true before any profile was attached")
	}
	// Every node id referenced by Kids must exist, and the root must be the
	// fixpoint application.
	for _, n := range ex.Nodes {
		for _, k := range n.Kids {
			if k < 0 || k >= len(ex.Nodes) {
				t.Fatalf("node %d has out-of-range kid %d", n.ID, k)
			}
		}
	}
	if ex.Nodes[ex.Root].Op != "fix" {
		t.Fatalf("root op = %s, want fix", ex.Nodes[ex.Root].Op)
	}
	// The E(x,y) base-case atom is recursion-free and must be hoisted; the
	// recursion atom T·b0 must not be.
	var sawHoistedAtom, sawRecAtom bool
	for _, n := range ex.Nodes {
		if n.Op != "atom" {
			continue
		}
		if n.Binder < 0 && n.Hoisted {
			sawHoistedAtom = true
		}
		if n.Binder == 0 {
			sawRecAtom = true
			if n.Hoisted {
				t.Fatalf("recursion atom %q marked hoisted", n.Label)
			}
		}
	}
	if !sawHoistedAtom || !sawRecAtom {
		t.Fatalf("hoistedAtom=%v recAtom=%v, want both", sawHoistedAtom, sawRecAtom)
	}

	// A rebound parameter takes an axis of its own, and explain names it by
	// its axis: the two E atoms and the ∃ read back to the plan.
	q, err := parser.ParseQuery("(p). [lfp R(x). E(x, p) | exists p. (E(x, p) & R(p))](p)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, n := range p.Explain(nil).Nodes {
		labels = append(labels, n.Label)
	}
	if got, want := strings.Join(labels, " "), "E(x,p) E(x,p@2) R·b0(p@2) ∧ ∃p@2 ∨ [lfp R(x)](p)"; got != want {
		t.Fatalf("labels %q, want %q", got, want)
	}
}

func TestExplainAttachProfile(t *testing.T) {
	ex := tcExplain(t)
	evals := make([]int64, len(ex.Nodes))
	ns := make([]int64, len(ex.Nodes))
	evals[ex.Root] = 1
	ns[ex.Root] = 5_000_000 // 5ms
	ex.AttachProfile(evals, ns)
	ex.AttachBinderStages(0, 4, 123, 2_000_000, 0)
	ex.AttachBinderStages(0, 2, 7, 1_000_000, 0)
	ex.AttachBinderStages(99, 1, 1, 1, 0) // out of range: ignored
	if !ex.Executed {
		t.Fatal("Executed = false after AttachProfile")
	}
	if got := ex.Nodes[ex.Root].WallUS; got != 5000 {
		t.Fatalf("root WallUS = %d, want 5000", got)
	}
	if b := ex.Binders[0]; b.Stages != 6 || b.DeltaTuples != 130 || b.BusyUS != 3000 {
		t.Fatalf("binder totals = %+v, want stages 6, delta 130, busy 3000us", b)
	}
}

func TestExplainRenderDAGBackrefs(t *testing.T) {
	ex := tcExplain(t)
	var sb strings.Builder
	ex.Render(&sb)
	out := sb.String()
	for _, want := range []string{"lfp T", "hoisted", "E(x,y)", "∃z", "binder 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Each node prints at most once in full: "n<id> " occurrences beyond the
	// first for the same id must be back-references.
	for _, n := range ex.Nodes {
		full := strings.Count(out, "n"+strconv.Itoa(n.ID)+" "+n.Label+"\n") +
			strings.Count(out, "n"+strconv.Itoa(n.ID)+" "+n.Label+"  [")
		if full > 1 {
			t.Fatalf("node %d rendered in full %d times:\n%s", n.ID, full, out)
		}
	}
}

func TestExplainJSONRoundTrip(t *testing.T) {
	ex := tcExplain(t)
	ex.Route = "dense"
	raw, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back Explain
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Route != "dense" || back.Width != ex.Width || len(back.Nodes) != len(ex.Nodes) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}
