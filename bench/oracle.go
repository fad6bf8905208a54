package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strconv"

	"repro"
)

// The oracle. Every query family has a meaning in plain graph terms
// (m-step successors, triangles, closure, reachability, nodes on an
// infinite path), so the expected answer of each text is computed here by
// direct graph algorithms over the generated graph, without the parser,
// the planner or any engine of the program under test. That makes every
// checked response a differential test, and it costs microseconds per
// text where the compiled engine would cost as much as the measured run.
// A seeded sample of texts is additionally evaluated through bvq.EvalContext
// (crossCheck) so that the oracle itself is held to the engines.

// nodeSet is a node set.
type nodeSet []uint64

func newNodeSet(n int) nodeSet     { return make(nodeSet, (n+63)/64) }
func (b nodeSet) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b nodeSet) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b nodeSet) clear()           { clear(b) }
func (b nodeSet) each(f func(int32)) {
	for w, word := range b {
		for word != 0 {
			f(int32(w*64 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// step returns the successors of set under relation rel, into out.
func (g *graph) step(rel int, set, out nodeSet) {
	out.clear()
	adj := g.e[rel]
	set.each(func(u int32) {
		for _, v := range adj[u] {
			out.set(v)
		}
	})
}

// answer is the expected result of one text: rows in the canonical
// (lexicographic) order the servers answer in, flattened arity at a time.
type answer struct {
	arity int
	flat  []int32
}

func (a *answer) count() int { return len(a.flat) / a.arity }

func (a *answer) add1(x int32)    { a.flat = append(a.flat, x) }
func (a *answer) add2(x, y int32) { a.flat = append(a.flat, x, y) }

// answer evaluates s over g.
func (s spec) answer(g *graph) *answer {
	out := &answer{arity: s.arity()}
	n := int32(g.n)
	member := func(set int, v int32) bool {
		if set < 0 {
			return true
		}
		for _, m := range g.s[set] {
			if m == v {
				return true
			}
		}
		return false
	}
	// emit applies the S filters on x and y that any binary shape may carry.
	emit := func(x, y int32) {
		if member(s.src, x) && member(s.dst, y) {
			out.add2(x, y)
		}
	}
	cur, next := newNodeSet(g.n), newNodeSet(g.n)
	// walk leaves in cur the nodes reached from x by following rels in order.
	walk := func(x int32, rels []int) {
		cur.clear()
		cur.set(x)
		for _, r := range rels {
			g.step(r, cur, next)
			cur, next = next, cur
		}
	}
	// closure grows cur to everything reachable from it over the union of
	// rels (forwards, or backwards when back is set).
	closure := func(rels []int, back bool) {
		var radj [][][]int32
		if back {
			for _, r := range rels {
				rev := make([][]int32, g.n)
				for u, succ := range g.e[r] {
					for _, v := range succ {
						rev[v] = append(rev[v], int32(u))
					}
				}
				radj = append(radj, rev)
			}
		}
		var stack []int32
		cur.each(func(u int32) { stack = append(stack, u) })
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i, r := range rels {
				succ := g.e[r][u]
				if back {
					succ = radj[i][u]
				}
				for _, v := range succ {
					if !cur.has(v) {
						cur.set(v)
						stack = append(stack, v)
					}
				}
			}
		}
	}
	switch s.fam {
	case "hop":
		for x := int32(0); x < n; x++ {
			if !member(s.src, x) {
				continue
			}
			if s.mid >= 0 {
				walk(x, s.rels[:1])
				next.clear()
				cur.each(func(z int32) {
					if member(s.mid, z) {
						next.set(z)
					}
				})
				g.step(s.rels[1], next, cur)
			} else {
				walk(x, s.rels)
			}
			cur.each(func(y int32) { emit(x, y) })
		}
	case "tri":
		for x := int32(0); x < n; x++ {
			found := false
			for _, y := range g.e[s.rels[0]][x] {
				closes := false
				for _, z := range g.e[s.rels[1]][y] {
					if g.hasEdge(s.rels[2], int(z), int(x)) {
						closes = true
						break
					}
				}
				if closes && !s.alt {
					emit(x, y)
				}
				found = found || closes
			}
			if found && s.alt {
				out.add1(x)
			}
		}
	case "tc":
		for x := int32(0); x < n; x++ {
			if !member(s.src, x) {
				continue
			}
			// Paths of length ≥ 1: start from the successors, not from x.
			cur.clear()
			for _, r := range s.rels {
				for _, v := range g.e[r][x] {
					cur.set(v)
				}
			}
			closure(s.rels, false)
			cur.each(func(y int32) { emit(x, y) })
		}
	case "reach":
		cur.clear()
		for _, v := range g.s[s.src] {
			cur.set(v)
		}
		closure(s.rels, s.back)
		cur.each(out.add1)
	case "gfp-live":
		// The greatest set whose every member has a successor inside it.
		cur.clear()
		for x := int32(0); x < n; x++ {
			if s.src < 0 || !member(s.src, x) {
				cur.set(x)
			}
		}
		for changed := true; changed; {
			changed = false
			next.clear()
			cur.each(func(x int32) {
				for _, y := range g.e[s.rels[0]][x] {
					if cur.has(y) {
						next.set(x)
						return
					}
				}
				changed = true
			})
			cur, next = next, cur
		}
		cur.each(out.add1)
	case "fo-neg":
		for x := int32(0); x < n; x++ {
			if s.alt {
				// Two-step successors that are not direct successors.
				walk(x, s.rels[:2])
				cur.each(func(y int32) {
					if !g.hasEdge(s.rels[2], int(x), int(y)) {
						emit(x, y)
					}
				})
				continue
			}
			// Direct successors with no two-step detour.
			walk(x, s.rels[1:])
			for _, y := range g.e[s.rels[0]][x] {
				if !cur.has(y) {
					emit(x, y)
				}
			}
		}
	default:
		panic("bench: unknown family " + s.fam)
	}
	return out
}

// FNV-1a, kept inline so the clients can hash response bytes as they
// arrive without an interface call per row.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, p []byte) uint64 {
	for _, c := range p {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// expect is what a response is compared against: the full cardinality, and
// an order-sensitive hash of the rows as the server renders them
// ("[1,2],[3,4]": the inside of the JSON answer array, which is also the
// NDJSON row lines joined by commas). limitHash covers the first
// limitRows rows, for LIMIT streams.
type expect struct {
	count     int
	hash      uint64
	limitRows int
	limitHash uint64
}

const streamLimit = 64

func (a *answer) expect() expect {
	e := expect{count: a.count(), hash: fnvOffset, limitHash: fnvOffset}
	var buf []byte
	for i := 0; i < e.count; i++ {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j := 0; j < a.arity; j++ {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(a.flat[i*a.arity+j]), 10)
		}
		buf = append(buf, ']')
		e.hash = fnvAdd(e.hash, buf)
		if i < streamLimit {
			e.limitHash = e.hash
			e.limitRows = i + 1
		}
	}
	return e
}

// crossCheck evaluates a seeded sample of at most limit of the workload's
// texts with the compiled engine (and, on domains of at most 64 elements, a
// few of the first-order ones with the naive engine too) and compares them
// with the native oracle. It returns the number of texts checked.
func crossCheck(w *workload, seed uint64, limit int) (int, error) {
	rng := rand.New(rand.NewPCG(seed, 0x0c105c))
	sample := rng.Perm(len(w.queries))
	sample = sample[:min(limit, len(sample))]
	dbs, err := w.parseDatabases()
	if err != nil {
		return 0, err
	}
	checked, naive := 0, 0
	for _, qi := range sample {
		q := w.queries[qi]
		parsed, err := bvq.ParseQuery(q.wire)
		if err != nil {
			return checked, fmt.Errorf("%s: %w", q.wire, err)
		}
		want := q.answer(w.graphs[q.db]).expect()
		engines := []bvq.Engine{bvq.EngineCompiled}
		if g := w.graphs[q.db]; g.n <= 64 && naive < 4 && (q.fam == "hop" && len(q.rels) == 2 || q.fam == "fo-neg" || q.fam == "tri") {
			engines = append(engines, bvq.EngineNaive)
			naive++
		}
		for _, engine := range engines {
			rel, err := bvq.EvalContext(context.Background(), parsed, dbs[q.db], engine)
			if err != nil {
				return checked, fmt.Errorf("%s engine on %s: %w", engine, q.wire, err)
			}
			got := &answer{arity: max(rel.Arity(), 1)}
			if rel.Arity() > 0 {
				for _, t := range rel.Tuples() {
					for _, v := range t {
						got.flat = append(got.flat, int32(v))
					}
				}
			}
			if e := got.expect(); e.count != want.count || e.hash != want.hash {
				return checked, fmt.Errorf("oracle disagrees with the %s engine on %s: %d rows against %d",
					engine, q.wire, want.count, e.count)
			}
		}
		checked++
	}
	return checked, nil
}
