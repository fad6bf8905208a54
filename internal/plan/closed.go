package plan

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// NodeKey is the canonical structure of a closed node's sub-DAG, hashed with
// the plan width: one key, one expression of Thm 4.1's algebra, in any plan.
type NodeKey [sha256.Size]byte

// Closed is what sharing a closed node's value between evaluations takes.
type Closed struct {
	Key  NodeKey
	Rels []string // the database relations the sub-DAG reads, sorted
}

// closeNodes fills p.Closed for the nodes to share: closed (Deps == 0), not a
// constant or diagonal, not strictly above a seedable fixpoint (a hit there
// would hide its final stage from maintenance capture). A key leaves out what
// only hash-consing depends on: children enter by key (sorted under ∧ and ∨),
// a recursion atom by the number of binders from it to its own on the path.
func (p *Plan) closeNodes() {
	p.Closed = make([]*Closed, len(p.Nodes))
	noFix := &FixInfo{}                                   // a node that is not a fixpoint has zero fix fields
	scope, buf := make([]int, 0, 8), make([]byte, 0, 128) // binders around the node being keyed, innermost last
	var key func(n int) NodeKey
	key = func(n int) NodeKey {
		if c := p.Closed[n]; c != nil {
			return c.Key
		}
		nd, fx, rel, depth := &p.Nodes[n], noFix, p.Nodes[n].Rel, 0
		if nd.Op == OpAtom && nd.Binder >= 0 {
			rel, depth = "", len(scope)-slices.Index(scope, nd.Binder)
		} else if nd.Op == OpFix {
			fx, scope = nd.Fix, append(scope, nd.Fix.Binder)
			defer func() { scope = scope[:len(scope)-1] }()
		}
		var kids [2]NodeKey // every operator has at most two
		for i, k := range nd.Kids {
			kids[i] = key(k)
		}
		if (nd.Op == OpAnd || nd.Op == OpOr) && bytes.Compare(kids[1][:], kids[0][:]) < 0 {
			kids[0], kids[1] = kids[1], kids[0]
		}
		// Every operator's fields, zero where unused; an axis fits a byte.
		b := append(buf[:0], byte(nd.Op), byte(len(p.Vars)), byte(depth), byte(nd.L), byte(nd.R), byte(nd.Axis), byte(fx.Op), 0)
		if nd.Truth {
			b[7] = 1
		}
		b = append(binary.AppendUvarint(b, uint64(len(rel))), rel...)
		for _, axes := range [...][]int{nd.Args, fx.VarAxes, fx.ParamAxes, fx.ArgAxes} {
			b = append(b, byte(len(axes)))
			for _, a := range axes {
				b = append(b, byte(a))
			}
		}
		for i := range nd.Kids {
			b = append(b, kids[i][:]...)
		}
		buf = b
		return sha256.Sum256(b)
	}
	// Ascending ids are a topological order: children come first. A node's
	// relations are its footprint entry (an atom), its child's, or a merge.
	rels, seeds, closed := make([][]string, len(p.Nodes)), make([]bool, len(p.Nodes)), make([]Closed, len(p.Nodes))
	for n := range p.Nodes {
		nd := &p.Nodes[n]
		if nd.Op == OpAtom && nd.Binder < 0 {
			i, _ := slices.BinarySearch(p.Maint.Rels, nd.Rel)
			rels[n] = p.Maint.Rels[i : i+1 : i+1]
		}
		for _, k := range nd.Kids {
			rels[n] = union(rels[n], rels[k])
			fx := p.Nodes[k].Fix
			seeds[n] = seeds[n] || seeds[k] || fx != nil && p.Maint.Seeded[fx.Binder]
		}
		if p.Deps[n] == 0 && nd.Op != OpConst && nd.Op != OpEq && !seeds[n] {
			closed[n] = Closed{Key: key(n), Rels: rels[n]}
			p.Closed[n] = &closed[n]
		}
	}
}

// union returns the sorted union of two sorted relation lists, one of them
// when it holds the other.
func union(a, b []string) []string {
	if len(b) > len(a) {
		a, b = b, a
	}
	if slices.ContainsFunc(b, func(r string) bool { return !slices.Contains(a, r) }) {
		a = append(slices.Clone(a), b...)
		slices.Sort(a)
		a = slices.Compact(a)
	}
	return a
}
