package plan

import (
	"testing"

	"repro/internal/parser"
)

// closedKeys compiles text and returns the keys of its shared nodes with the
// footprint each was given.
func closedKeys(t *testing.T, text string) map[NodeKey][]string {
	t.Helper()
	q, err := parser.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	out := map[NodeKey][]string{}
	for n, c := range p.Closed {
		if c == nil {
			continue
		}
		if p.Deps[n] != 0 || p.Nodes[n].Op == OpEq || p.Nodes[n].Op == OpConst {
			t.Fatalf("%s: node %d is shared but open or trivial", text, n)
		}
		out[c.Key] = c.Rels
	}
	return out
}

// rootKey is the key of text's whole body.
func rootKey(t *testing.T, text string) NodeKey {
	t.Helper()
	q, err := parser.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Closed[p.Root] == nil {
		t.Fatalf("%s: the root has no key", text)
	}
	return p.Closed[p.Root].Key
}

// TestClosedKeysAgree: what hash-consing alone depends on — the order of
// conjuncts and disjuncts, a subformula written twice or once, the name of a
// recursion relation, the plan the node sits in — does not reach the key.
func TestClosedKeysAgree(t *testing.T) {
	tc := "[lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y)"
	for _, pair := range [][2]string{
		{"(x, y). E(x, y) & P(x)", "(x, y). P(x) & E(x, y)"},
		{"(x, y). (E(x, y) | P(y)) & (exists z. (E(x, z) & E(z, y)))", "(x, y). (exists z. (E(z, y) & E(x, z))) & (P(y) | E(x, y))"},
		{"(x, y). (E(x, y) & P(x)) | (P(x) & E(x, y))", "(x, y). (E(x, y) & P(x)) | (E(x, y) & P(x))"},
		{"(x, y). " + tc, "(x, y). [lfp R(x, y). (exists z. (R(z, y) & E(x, z))) | E(x, y)](x, y)"},
		// An inner fixpoint that shadows the outer one's name, renamed apart
		// (a gfp: above a seedable lfp the outer node would not be shared).
		{"(x). [lfp S(x). P(x) | [gfp S(x). S(x) & Q(x)](x)](x)", "(x). [lfp S(x). P(x) | [gfp U(x). U(x) & Q(x)](x)](x)"},
	} {
		if rootKey(t, pair[0]) != rootKey(t, pair[1]) {
			t.Errorf("keys differ:\n%s\n%s", pair[0], pair[1])
		}
	}
	// The closed fixpoint keeps its key under a filter, in another plan of
	// the same width, with its footprint.
	alone, filtered := closedKeys(t, "(x, y). exists z. "+tc), closedKeys(t, "(x, y). P(x) & Q(y) & "+tc)
	key := rootKey(t, "(x, y). "+tc)
	if rels, ok := alone[key]; !ok || len(rels) != 1 || rels[0] != "E" {
		t.Fatalf("closed fixpoint not found under a projection, or with footprint %v", rels)
	}
	if _, ok := filtered[key]; !ok {
		t.Fatal("closed fixpoint not found under a filter")
	}
	for k, rels := range filtered {
		if _, ok := alone[k]; ok && k != key && len(rels) != 1 {
			t.Fatalf("an atom of the fixpoint body has footprint %v", rels)
		}
	}
}

// TestClosedKeysDiffer: everything a value depends on reaches the key.
func TestClosedKeysDiffer(t *testing.T) {
	seen := map[NodeKey]string{}
	for _, text := range []string{
		"(x, y). E(x, y) & P(x)",
		"(x, y). E(x, y) | P(x)",
		"(x, y). E(y, x) & P(x)",    // other axes
		"(x, y). E(x, y) & P(y)",    // other axis
		"(x, y). F(x, y) & P(x)",    // other relation
		"(x, y, z). E(x, y) & P(x)", // other width: other cylinders
		"(x, y). E(x, y) & !P(x)",   // polarity
		"(x, y). exists z. (E(x, z) & E(z, y))",
		"(x, y). forall z. (E(x, z) & E(z, y))",
		"(x, y). (exists z. E(x, z)) & E(x, y)",
		"(x). [lfp S(x). P(x) | (exists y. (E(y, x) & S(y)))](x)",
		"(x). [gfp S(x). P(x) | (exists y. (E(y, x) & S(y)))](x)",
		"(x). [ifp S(x). P(x) | (exists y. (E(y, x) & S(y)))](x)",
		// A PFP whose body is negative in its relation keeps its operator;
		// so does an IFP over the same body.
		"(x). [pfp S(x). P(x) | (exists y. (E(y, x) & !S(y)))](x)",
		"(x). [ifp S(x). P(x) | (exists y. (E(y, x) & !S(y)))](x)",
		"(x, y). [lfp S(x). P(x) | (exists y. (E(y, x) & S(y)))](y)", // other argument
		// Which binder a recursion atom reads: the inner one, the outer one
		// through the inner body, the outer one beside the inner fixpoint.
		"(x). [lfp S(x). P(x) | [gfp T(x). T(x) & Q(x)](x)](x)",
		"(x). [lfp S(x). P(x) | [gfp T(x). S(x) & Q(x)](x)](x)",
		"(x). [lfp S(x). P(x) | (S(x) & [gfp T(x). Q(x)](x))](x)",
		// One hash-consed atom S(x) read at two depths, against the inner
		// atom in its second place.
		"(x). [lfp S(x). S(x) | [gfp T(x). S(x) & Q(x)](x)](x)",
		"(x). [lfp S(x). S(x) | [gfp T(x). T(x) & Q(x)](x)](x)",
		"(x). [lfp S(x). P(x) | [gfp T(x). T(x) & [gfp U(x). S(x) & Q(x)](x)](x)](x)",
		"(x). [lfp S(x). P(x) | [gfp T(x). T(x) & [gfp U(x). T(x) & Q(x)](x)](x)](x)",
	} {
		key := rootKey(t, text)
		if other, ok := seen[key]; ok {
			t.Errorf("one key for two queries:\n%s\n%s", other, text)
		}
		seen[key] = text
	}
}

// TestClosedKeysPositivePFPIsLFP: a PFP whose body is positive in its
// relation compiles as the LFP it equals, so the two spellings share a key.
func TestClosedKeysPositivePFPIsLFP(t *testing.T) {
	body := " S(x). P(x) | (exists y. (E(y, x) & S(y)))](x)"
	if rootKey(t, "(x). [lfp"+body) != rootKey(t, "(x). [pfp"+body) {
		t.Error("the lfp and positive-pfp spellings have different keys")
	}
}

// TestClosedSkipsAboveSeedableFixpoints: a node strictly above a seedable
// fixpoint is left to its run (a hit there would hide the fixpoint's final
// stage from maintenance capture); the fixpoint itself is shared.
func TestClosedSkipsAboveSeedableFixpoints(t *testing.T) {
	q, err := parser.ParseQuery("(x). P(x) & (exists y. [lfp T(x, y). E(x, y) | (exists z. (E(x, z) & T(z, y)))](x, y))")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	fix := p.FixOf[0]
	if !p.Maint.Seeded[0] || p.Closed[fix] == nil {
		t.Fatal("the seedable fixpoint itself must be shared")
	}
	for n, nd := range p.Nodes {
		above := nd.Op == OpExists && nd.Kids[0] == fix || n == p.Root
		if above && p.Closed[n] != nil {
			t.Fatalf("node %d above the seedable fixpoint is shared", n)
		}
	}
}
