package plan

import (
	"math/bits"
	"slices"

	"repro/internal/logic"
)

// scope is the miniscoping pass (DESIGN §4, "One scoping pass"): in each
// maximal ∃∧ region of the NNF body f it drops an equality with a bound
// variable no opaque conjunct (¬, ∨, ∀, fixpoint, constant) reads (the
// one-point rule), nests each other ∃v over exactly the conjuncts that
// mention v, removing the variables in one greedy min-fill order with ties by
// binder order, and lands each filter — a database atom whose variables are
// all free in the region — beside the first atom holding them in the
// innermost ∃ it can enter, the GYO ear's witness. An ∃ that rebinds a name
// is the root of a region of its own, which a filter reading no such name
// enters; no filter enters a fixpoint, ¬, ∨ or ∀. A region is rewritten only
// when the plan's width falls by it or a filter lands in it, and one holding a
// rewritten region is written scoped unless that is wider than written. A body
// with more than 64 variables in scope at once stays as written. scope
// reports whether a rewritten region is narrower than written.
func (s *scoper) scope(head []logic.Var, f logic.Formula) (logic.Formula, bool) {
	s.env, s.recs, s.items, s.regs = s.buf.env[:0], s.buf.recs[:0], s.buf.items[:0], s.buf.regs[:0]
	s.fixed, s.failed = len(head), false
	s.push(head...)
	s.walk(f)
	w := s.fixed // the plan's width with each region at its narrower form
	for _, r := range s.regs {
		w = max(w, min(r.w0, r.w1))
	}
	for i := range s.regs {
		r := &s.regs[i]
		for j := i + 1; j < r.end && r.w1 > r.w0; j++ { // scoped wider than written: its inside stays
			s.regs[j].moved, s.regs[j].w1 = false, s.regs[j].w0
		}
		r.rewrite = r.moved || r.w1 < r.w0 && r.w0 > w
	}
	rewrite, narrowed := false, false
	for i := len(s.regs) - 1; i >= 0; i-- { // and one holding a rewritten region is emitted scoped
		r := &s.regs[i]
		for j := i + 1; j < r.end && !r.rewrite; j++ {
			r.rewrite = s.regs[j].rewrite
		}
		rewrite, narrowed = rewrite || r.rewrite, narrowed || r.rewrite && r.w1 < r.w0
	}
	if !rewrite || s.failed {
		return f, false
	}
	next := 0
	return s.emit(f, &next), narrowed
}

// A scoper holds the pass's state. A variable's id is its place in env (its
// axis field), sets of them bit masks: past 64 variables in scope at once the
// pass fails.
type scoper struct {
	env    []scoped    // names in scope, innermost last
	recs   []binding   // the recursion relations in scope and their parameters, innermost last
	items  []scopeItem // the regions' conjuncts and their eliminations' groups
	regs   []region    // in the order walk meets them
	fixed  int         // the widest binder outside any region (∀, fixpoint) or the head
	failed bool        // past 64 variables in scope
	buf    struct {    // first backing arrays: a small text allocates none of these
		env   [8]scoped
		recs  [2]binding
		items [8]scopeItem
		regs  [2]region
	}
}

const (
	leafAtom   = iota // a database atom
	leafRec           // an atom of a recursion relation in scope
	leafEq            // an equality
	leafOpaque        // any other conjunct
	itemGroup         // ∃v over the items that mention v
)

// A scopeItem is a region's conjunct (a leaf) or a group, linked into lists
// by index (-1 ends one). live is what it reads from around it, a recursion
// atom's parameters included; args an atom's arguments.
type scopeItem struct {
	kind       int8
	f          logic.Formula // a leaf as written
	v          logic.Var     // a group's variable
	live, args uint64
	reg, pos   int // a leaf's region and place in written order (a group's: its first member's)
	sub, next  int // an opaque leaf's first region; the next item of a list
	first      int // a group's members; the filters landed beside an atom
}

// A region is a maximal ∃∧ subformula, binding the ids base … base+k-1. Its
// items are its leaves in written order until eliminate groups them.
type region struct {
	top, last, base, k, end int    // its items, its last leaf, past the regions inside it
	w0, w1                  int    // its widest binder as written and as scoped
	shadow                  uint64 // the variable its root's ∃ rebinds
	subst                   map[logic.Var]logic.Var
	moved, rewrite          bool
}

// walk scopes the regions of f and returns what f reads from around it.
func (s *scoper) walk(f logic.Formula) uint64 {
	switch g := f.(type) {
	case logic.Atom, logic.Eq:
		return reads(f, &s.env, &s.recs)
	case logic.Not:
		return s.walk(g.F)
	case logic.Binary:
		if g.Op == logic.AndOp {
			return s.region(f)
		}
		return s.walk(g.L) | s.walk(g.R)
	case logic.Quant:
		if g.Kind == logic.ExistsQ {
			return s.region(f)
		}
		n := s.push(g.V)
		m := s.walk(g.F) & (1<<n - 1)
		s.env, s.fixed = s.env[:n], max(s.fixed, bits.OnesCount64(m)+1)
		return m
	case logic.Fix:
		// The parameters are what the body reads from around it, which an atom
		// of g's relation reads too.
		n := s.push(g.Vars...)
		s.recs = append(s.recs, binding{rel: g.Rel})
		params := reads(g.Body, &s.env, &s.recs) & (1<<n - 1)
		s.recs[len(s.recs)-1].live = params
		s.walk(g.Body)
		s.env, s.recs = s.env[:n], s.recs[:len(s.recs)-1]
		s.fixed = max(s.fixed, bits.OnesCount64(params)+len(g.Vars))
		return params | s.bits(g.Args...)
	}
	return 0
}

// region scopes the region rooted at f and returns what it reads from around
// it.
func (s *scoper) region(f logic.Formula) uint64 {
	r, n, shadow := len(s.regs), len(s.env), uint64(0)
	if q, ok := f.(logic.Quant); ok && s.bound(q.V) {
		shadow = s.bits(q.V)
	}
	s.regs = append(s.regs, region{top: -1, last: -1, base: n, shadow: shadow})
	live := s.collect(r, f, true)
	reg := &s.regs[r]
	if reg.k, reg.end = len(s.env)-n, len(s.regs); !s.failed {
		vars := s.onePoint(reg)
		s.eliminate(reg, vars)
		for p := &reg.top; *p >= 0 && reg.w1 <= reg.w0; { // the filters are on the top
			i, land := *p, -1
			if it := &s.items[i]; it.kind == leafAtom && it.args&vars == 0 {
				land = s.place(i, reg.top, true)
			}
			if land < 0 {
				p = &s.items[i].next
				continue
			}
			*p, s.items[i].next, s.items[land].first, reg.moved = s.items[i].next, s.items[land].first, i, true
		}
	}
	s.env = s.env[:n]
	return live
}

// collect records the leaves of region r below f, its root when root,
// binding the ∃ it meets, and returns what f reads from around it.
func (s *scoper) collect(r int, f logic.Formula, root bool) uint64 {
	switch g := f.(type) {
	case logic.Binary:
		if g.Op == logic.AndOp {
			return s.collect(r, g.L, false) | s.collect(r, g.R, false)
		}
	case logic.Quant:
		if g.Kind == logic.ExistsQ && (root || !s.bound(g.V)) {
			n := s.push(g.V)
			m := s.collect(r, g.F, false) &^ (1 << n)
			s.regs[r].w0 = max(s.regs[r].w0, bits.OnesCount64(m)+1)
			return m
		}
	}
	it := scopeItem{f: f, reg: r, pos: len(s.items), sub: len(s.regs), next: -1, first: -1}
	switch g := f.(type) {
	case logic.Atom:
		if _, rec := recLive(s.recs, g.Rel); rec {
			it.kind = leafRec
		}
		it.live, it.args = reads(f, &s.env, &s.recs), s.bits(g.Args...)
	case logic.Eq:
		it.kind, it.live = leafEq, s.bits(g.L, g.R)
	default:
		it.kind, it.live = leafOpaque, s.walk(f)
	}
	s.items = append(s.items, it)
	reg, link := &s.regs[r], &s.regs[r].top // the leaf goes last on the region's top
	if reg.last >= 0 {
		link = &s.items[reg.last].next
	}
	*link, reg.last = len(s.items)-1, len(s.items)-1
	return it.live
}

// onePoint applies the one-point rule ∃v(v = u ∧ φ) ≡ φ[v := u] to region
// reg and returns the ids left to bind.
func (s *scoper) onePoint(reg *region) uint64 {
	vars := (uint64(1)<<reg.k - 1) << reg.base
	free := vars // those no opaque conjunct reads
	for i := reg.top; i >= 0; i = s.items[i].next {
		if s.items[i].kind == leafOpaque {
			free &^= s.items[i].live
		}
	}
	for p := &reg.top; *p >= 0; {
		it := &s.items[*p]
		u, v := bits.TrailingZeros64(it.live), 63-bits.LeadingZeros64(it.live)
		if it.kind == leafEq && free&(1<<v) == 0 {
			u, v = v, u
		}
		if it.kind != leafEq || free&(1<<v) == 0 {
			p = &it.next
			continue
		}
		if *p = it.next; u == v {
			continue // v = v
		}
		vars, free = vars&^(1<<v), free&^(1<<v)
		if reg.subst == nil {
			reg.subst = map[logic.Var]logic.Var{}
		}
		for w, x := range reg.subst {
			if x == s.env[v].v {
				reg.subst[w] = s.env[u].v
			}
		}
		reg.subst[s.env[v].v] = s.env[u].v
		for j := reg.top; j >= 0; j = s.items[j].next {
			for _, m := range [...]*uint64{&s.items[j].live, &s.items[j].args} {
				if *m&(1<<v) != 0 {
					*m = *m&^(1<<v) | 1<<u
				}
			}
		}
	}
	return vars
}

// eliminate removes the ids vars of region reg in greedy min-fill order —
// next the one whose neighbours miss the fewest edges among themselves, the
// earliest bound on a tie — each removal grouping the items that mention it.
func (s *scoper) eliminate(reg *region, vars uint64) {
	for vars != 0 {
		v, fill := -1, 0
		for m := vars; m != 0; m &= m - 1 {
			u := bits.TrailingZeros64(m)
			nb, missing := s.adjacent(reg.top, u)&^(1<<u), 0
			for a := nb; a != 0; a &= a - 1 {
				missing += bits.OnesCount64(nb &^ s.adjacent(reg.top, bits.TrailingZeros64(a)))
			}
			if v < 0 || missing < fill {
				v, fill = u, missing
			}
		}
		vars &^= 1 << v
		g := scopeItem{kind: itemGroup, v: s.env[v].v, pos: 1 << 30, first: -1}
		for p, tail := &reg.top, &g.first; *p >= 0; {
			if it := &s.items[*p]; it.live&(1<<v) == 0 {
				p = &it.next
			} else {
				*tail, tail, *p, it.next = *p, &it.next, it.next, -1
				g.live, g.pos = g.live|it.live, min(g.pos, it.pos)
			}
		}
		if g.first < 0 {
			continue // v is read nowhere
		}
		g.live &^= 1 << v
		reg.w1 = max(reg.w1, bits.OnesCount64(g.live)+1)
		p := &reg.top
		for *p >= 0 && s.items[*p].pos < g.pos {
			p = &s.items[*p].next
		}
		g.next, *p = *p, len(s.items)
		s.items = append(s.items, g)
	}
}

// adjacent returns the ids that share an item of the list first with id.
func (s *scoper) adjacent(first, id int) (m uint64) {
	for i := first; i >= 0; i = s.items[i].next {
		if s.items[i].live&(1<<id) != 0 {
			m |= s.items[i].live
		}
	}
	return m
}

// place returns the atom beside which filter f lands below the list first
// (a region's top when top), or -1.
func (s *scoper) place(f, first int, top bool) int {
	want, land, items := s.items[f].args, -1, 0
	for i := first; i >= 0; i = s.items[i].next {
		it := &s.items[i]
		switch items++; {
		case i == f || it.live&want != want:
		case it.kind == itemGroup:
			if a := s.place(f, it.first, false); a >= 0 {
				return a
			}
		case it.kind == leafOpaque && isExists(it.f):
			if sub := &s.regs[it.sub]; want&sub.shadow == 0 && sub.w1 <= sub.w0 {
				if a := s.place(f, sub.top, false); a >= 0 {
					sub.moved = true
					return a
				}
			}
		case it.kind <= leafRec && land < 0 && it.args&want == want:
			land = i
		}
	}
	if top || items < 2 {
		return -1
	}
	return land
}

// emit returns f with its rewritten regions in place, numbered from *next on.
func (s *scoper) emit(f logic.Formula, next *int) logic.Formula {
	switch g := f.(type) {
	case logic.Atom, logic.Eq, logic.Truth:
		return f
	case logic.Not:
		return logic.Not{F: s.emit(g.F, next)}
	case logic.Binary:
		if g.Op != logic.AndOp {
			return logic.Binary{Op: g.Op, L: s.emit(g.L, next), R: s.emit(g.R, next)}
		}
	case logic.Quant:
		if g.Kind == logic.ForallQ {
			g.F = s.emit(g.F, next)
			return g
		}
	case logic.Fix:
		g.Body = s.emit(g.Body, next)
		return g
	}
	r := *next // a region
	if *next = s.regs[r].end; s.regs[r].rewrite {
		return s.emitList(s.regs[r].top)
	}
	return f
}

// emitList emits a list of items as a left-deep ∧.
func (s *scoper) emitList(first int) logic.Formula {
	if first < 0 {
		return logic.True // every conjunct an equality the one-point rule dropped
	}
	out := s.emitItem(first)
	for i := s.items[first].next; i >= 0; i = s.items[i].next {
		out = logic.Binary{Op: logic.AndOp, L: out, R: s.emitItem(i)}
	}
	return out
}

// emitItem emits a group as its ∃, a leaf by its region's one-point
// substitution, with the filters landed beside it in front.
func (s *scoper) emitItem(i int) logic.Formula {
	it := &s.items[i]
	if it.kind == itemGroup {
		return logic.Quant{Kind: logic.ExistsQ, V: it.v, F: s.emitList(it.first)}
	}
	next := it.sub // no opaque leaf reads a substituted variable
	out := s.emit(logic.RenameFree(it.f, s.regs[it.reg].subst), &next)
	for f := it.first; f >= 0; f = s.items[f].next {
		out = logic.Binary{Op: logic.AndOp, L: s.emitItem(f), R: out}
	}
	return out
}

// push binds vs and returns the id the first takes.
func (s *scoper) push(vs ...logic.Var) int {
	n := len(s.env)
	for _, v := range vs {
		s.env = append(s.env, scoped{v, len(s.env)})
	}
	s.failed = s.failed || len(s.env) > 64
	return n
}

// bound reports whether v is in scope.
func (s *scoper) bound(v logic.Var) bool {
	return slices.ContainsFunc(s.env, func(e scoped) bool { return e.v == v })
}

// bits returns the ids of vs, each's innermost binding.
func (s *scoper) bits(vs ...logic.Var) uint64 { return bitsOf(s.env, vs) }

// reads returns what f reads from around it where *env and *recs are in
// scope: the bit (axis) of each free variable's innermost binding, and
// through an atom of a recursion relation in *recs that relation's parameters
// (live). A binder below f hides its names on *env (axis -1) while reads is
// below it; both stacks are as they were when it returns.
func reads(f logic.Formula, env *[]scoped, recs *[]binding) uint64 {
	switch g := f.(type) {
	case logic.Atom:
		m, _ := recLive(*recs, g.Rel)
		return m | bitsOf(*env, g.Args)
	case logic.Eq:
		return bitsOf(*env, []logic.Var{g.L, g.R})
	case logic.Not:
		return reads(g.F, env, recs)
	case logic.Binary:
		return reads(g.L, env, recs) | reads(g.R, env, recs)
	case logic.Quant:
		*env = append(*env, scoped{g.V, -1})
		m := reads(g.F, env, recs)
		*env = (*env)[:len(*env)-1]
		return m
	case logic.Fix:
		m, n := bitsOf(*env, g.Args), len(*env)
		for _, v := range g.Vars {
			*env = append(*env, scoped{v, -1})
		}
		*recs = append(*recs, binding{rel: g.Rel})
		m |= reads(g.Body, env, recs)
		*env, *recs = (*env)[:n], (*recs)[:len(*recs)-1]
		return m
	}
	return 0
}

// bitsOf returns the bits (axes) of vs's innermost bindings in env; a hidden
// one (axis -1) has none.
func bitsOf(env []scoped, vs []logic.Var) (m uint64) {
	for _, v := range vs {
		i := len(env) - 1
		for env[i].v != v {
			i--
		}
		if env[i].axis >= 0 {
			m |= 1 << env[i].axis
		}
	}
	return m
}

// recLive returns the parameters of the innermost recursion relation rel in
// recs and whether there is one.
func recLive(recs []binding, rel string) (uint64, bool) {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].rel == rel {
			return recs[i].live, true
		}
	}
	return 0, false
}

func isExists(f logic.Formula) bool {
	q, ok := f.(logic.Quant)
	return ok && q.Kind == logic.ExistsQ
}
