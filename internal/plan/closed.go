package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strings"
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
	var scope []int // binders around the node being keyed, innermost last
	var key func(n int) NodeKey
	key = func(n int) NodeKey {
		if c := p.Closed[n]; c != nil {
			return c.Key
		}
		nd, fx, rel, depth := &p.Nodes[n], FixInfo{}, p.Nodes[n].Rel, 0
		if nd.Op == OpAtom && nd.Binder >= 0 {
			rel, depth = "", len(scope)-slices.Index(scope, nd.Binder)
		} else if nd.Op == OpFix {
			fx = *nd.Fix
			scope = append(scope, fx.Binder)
			defer func() { scope = scope[:len(scope)-1] }()
		}
		// Every operator's fields, zero where unused; an axis fits a byte.
		b := []byte{byte(nd.Op), byte(len(p.Vars)), byte(depth), byte(nd.L), byte(nd.R), byte(nd.Axis), byte(fx.Op), 0}
		if nd.Truth {
			b[7] = 1
		}
		b = append(binary.AppendUvarint(b, uint64(len(rel))), rel...)
		for _, axes := range [][]int{nd.Args, fx.VarAxes, fx.ParamAxes, fx.ArgAxes} {
			b = append(b, byte(len(axes)))
			for _, a := range axes {
				b = append(b, byte(a))
			}
		}
		var kids []string
		for _, k := range nd.Kids {
			kk := key(k)
			kids = append(kids, string(kk[:]))
		}
		if nd.Op == OpAnd || nd.Op == OpOr {
			slices.Sort(kids)
		}
		return sha256.Sum256(append(b, strings.Join(kids, "")...))
	}
	// Ascending ids are a topological order: children come first.
	rels := make([][]string, len(p.Nodes))
	seeds := make([]bool, len(p.Nodes))
	for n := range p.Nodes {
		nd := &p.Nodes[n]
		if nd.Op == OpAtom && nd.Binder < 0 {
			rels[n] = []string{nd.Rel}
		}
		for _, k := range nd.Kids {
			rels[n] = append(rels[n], rels[k]...)
			fx := p.Nodes[k].Fix
			seeds[n] = seeds[n] || seeds[k] || fx != nil && p.Maint.Seeded[fx.Binder]
		}
		slices.Sort(rels[n])
		rels[n] = slices.Compact(rels[n])
		if p.Deps[n] == 0 && nd.Op != OpConst && nd.Op != OpEq && !seeds[n] {
			p.Closed[n] = &Closed{Key: key(n), Rels: rels[n]}
		}
	}
}
