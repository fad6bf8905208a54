package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/database"
)

// graph is the benchmark's own view of one generated database: successor
// lists per binary relation E0..Ek and members per unary relation S0..Sm,
// over domain indices (the domain is 0..n-1, so indices are values). The
// native oracle (oracle.go) answers every query family from this view with
// plain graph algorithms, independently of the engine under test.
type graph struct {
	name string
	n    int
	e    [][][]int32 // relation → node → sorted successors
	s    [][]int32   // relation → sorted members
}

// database renders g as the database the servers load.
func (g *graph) database() *database.Database {
	b := database.NewBuilder()
	for i := 0; i < g.n; i++ {
		b.Domain(i)
	}
	for r, adj := range g.e {
		name := eName(r)
		b.Relation(name, 2)
		for u, succ := range adj {
			for _, v := range succ {
				b.Add(name, u, int(v))
			}
		}
	}
	for r, members := range g.s {
		name := sName(r)
		b.Relation(name, 1)
		for _, v := range members {
			b.Add(name, int(v))
		}
	}
	return b.MustBuild()
}

// withEdge returns a copy of g whose relation E<rel> also holds (u, v).
// Only the touched successor list is copied.
func (g *graph) withEdge(rel, u, v int) *graph {
	c := *g
	c.e = append([][][]int32(nil), g.e...)
	c.e[rel] = append([][]int32(nil), g.e[rel]...)
	succ := append(append([]int32(nil), g.e[rel][u]...), int32(v))
	sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
	c.e[rel][u] = succ
	return &c
}

// upTo is 0..n-1: the indices of a graph's binary or unary relations.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (g *graph) hasEdge(rel, u, v int) bool {
	succ := g.e[rel][u]
	i := sort.Search(len(succ), func(i int) bool { return succ[i] >= int32(v) })
	return i < len(succ) && succ[i] == int32(v)
}

// regularDigraph gives every node exactly deg distinct random successors
// (no self-loops). A fixed out-degree keeps answer sizes — and so the
// timings — close from seed to seed, which an Erdős–Rényi draw does not.
func regularDigraph(rng *rand.Rand, n, deg int) [][]int32 {
	adj := make([][]int32, n)
	for u := range adj {
		seen := map[int32]bool{int32(u): true}
		for len(adj[u]) < deg {
			v := int32(rng.IntN(n))
			if !seen[v] {
				seen[v] = true
				adj[u] = append(adj[u], v)
			}
		}
		sort.Slice(adj[u], func(i, j int) bool { return adj[u][i] < adj[u][j] })
	}
	return adj
}

// pathForest is the disjoint union of directed paths on block consecutive
// nodes: least fixpoints over it converge within block stages.
func pathForest(n, block int) [][]int32 {
	adj := make([][]int32, n)
	for u := 0; u+1 < n; u++ {
		if (u+1)%block != 0 {
			adj[u] = []int32{int32(u + 1)}
		}
	}
	return adj
}

// randomSet draws size distinct members of 0..n-1, sorted.
func randomSet(rng *rand.Rand, n, size int) []int32 {
	seen := make(map[int32]bool, size)
	out := make([]int32, 0, size)
	for len(out) < size {
		v := int32(rng.IntN(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The three databases. Dense domains are 64 nodes: one n=512 width-3 bitmap
// is 16 MiB, and a result cache full of those is what made an earlier
// benchmark's memory figure a measurement of GC timing. The large domain
// exists only where 2000³ bits exceeds the dense limit, so the sparse and
// acyclic routes are forced.
const forestBlock = 16

func genDense64(rng *rand.Rand) *graph {
	g := &graph{name: "dense64", n: 64}
	for i := 0; i < 4; i++ {
		g.e = append(g.e, regularDigraph(rng, g.n, 4))
	}
	for i := 0; i < 32; i++ {
		g.s = append(g.s, randomSet(rng, g.n, 1+i%4))
	}
	return g
}

func genForest64(rng *rand.Rand) *graph {
	g := &graph{name: "forest64", n: 64}
	g.e = append(g.e, pathForest(g.n, forestBlock), regularDigraph(rng, g.n, 3))
	for i := 0; i < 16; i++ {
		g.s = append(g.s, randomSet(rng, g.n, 1+i%4))
	}
	return g
}

func genSparse2k(rng *rand.Rand) *graph {
	g := &graph{name: "sparse2k", n: 2000}
	for i := 0; i < 4; i++ {
		g.e = append(g.e, regularDigraph(rng, g.n, 3))
	}
	for i := 0; i < 64; i++ {
		size := 2 + 2*(i%4) // S0..S31: 2–8 members
		if i >= 32 {
			size = 24 + 8*(i%4) // S32..S63: 24–48
		}
		g.s = append(g.s, randomSet(rng, g.n, size))
	}
	return g
}

// spec names one query of a family by its parameters. The query language
// has no constants, so distinct texts come from the choice of relation
// names and shape; text renders the wire text and answer (oracle.go) the
// expected rows.
type spec struct {
	fam  string // hop, tri, tc, reach, gfp-live, fo-neg
	rels []int  // E indices, in order of use
	// fix is the fixpoint operator of a reach query: lfp, ifp or pfp. The
	// body is monotone, so all three denote the same set.
	fix      string
	back     bool // reach: follow edges backwards
	alt      bool // tri: project to x; fo-neg: the path-minus-edge form
	src, dst int  // S indices filtering x and y; -1 for none
	mid      int  // hop, m = 2: S index filtering the middle node; -1 for none
}

func eName(i int) string { return fmt.Sprintf("E%d", i) }
func sName(i int) string { return fmt.Sprintf("S%d", i) }

func (s spec) arity() int {
	switch s.fam {
	case "reach", "gfp-live":
		return 1
	case "tri":
		if s.alt {
			return 1
		}
	}
	return 2
}

// text renders the query in at most three variables x, y, z (u for the
// head of unary fixpoints, as the repo's own examples write them).
func (s spec) text() string {
	var body string
	switch s.fam {
	case "hop":
		body = hopChain("x", s.rels)
		if s.mid >= 0 {
			body = fmt.Sprintf("exists z. (%s(x, z) & %s(z) & %s(z, y))", eName(s.rels[0]), sName(s.mid), eName(s.rels[1]))
		}
	case "tri":
		e := s.rels
		if s.alt {
			return fmt.Sprintf("(x). exists y. exists z. (%s(x, y) & %s(y, z) & %s(z, x))",
				eName(e[0]), eName(e[1]), eName(e[2]))
		}
		body = fmt.Sprintf("exists z. (%s(x, y) & %s(y, z) & %s(z, x))", eName(e[0]), eName(e[1]), eName(e[2]))
	case "tc":
		base, step := eName(s.rels[0])+"(x, y)", eName(s.rels[0])+"(x, z)"
		if len(s.rels) == 2 {
			base = fmt.Sprintf("(%s(x, y) | %s(x, y))", eName(s.rels[0]), eName(s.rels[1]))
			step = fmt.Sprintf("(%s(x, z) | %s(x, z))", eName(s.rels[0]), eName(s.rels[1]))
		}
		body = fmt.Sprintf("[lfp T(x, y). %s | (exists z. (%s & T(z, y)))](x, y)", base, step)
	case "reach":
		edge := eName(s.rels[0]) + "(z, x)"
		if s.back {
			edge = eName(s.rels[0]) + "(x, z)"
		}
		return fmt.Sprintf("(u). [%s R(x). %s(x) | (exists z. (%s & (exists x. (x = z & R(x)))))](u)",
			s.fix, sName(s.src), edge)
	case "gfp-live":
		avoid := ""
		if s.src >= 0 {
			avoid = "!" + sName(s.src) + "(x) & "
		}
		return fmt.Sprintf("(u). [gfp T(x). %s(exists y. (%s(x, y) & (exists x. (x = y & T(x)))))](u)",
			avoid, eName(s.rels[0]))
	case "fo-neg":
		e := s.rels
		body = fmt.Sprintf("%s(x, y) & !(exists z. (%s(x, z) & %s(z, y)))", eName(e[0]), eName(e[1]), eName(e[2]))
		if s.alt {
			body = fmt.Sprintf("(exists z. (%s(x, z) & %s(z, y))) & !%s(x, y)", eName(e[0]), eName(e[1]), eName(e[2]))
		}
	default:
		panic("bench: unknown family " + s.fam)
	}
	if s.dst >= 0 {
		body = fmt.Sprintf("%s(y) & (%s)", sName(s.dst), body)
	}
	if s.src >= 0 {
		body = fmt.Sprintf("%s(x) & (%s)", sName(s.src), body)
	}
	return "(x, y). " + body
}

// hopChain writes the m-hop path from cur to y, alternating the two
// variables x and z for the intermediate nodes: three variables for any m.
// For m = 2 no variable is bound twice, so the query is a conjunctive query
// the acyclic (Yannakakis) route recognises.
func hopChain(cur string, rels []int) string {
	if len(rels) == 1 {
		return fmt.Sprintf("%s(%s, y)", eName(rels[0]), cur)
	}
	next := "z"
	if cur == "z" {
		next = "x"
	}
	return fmt.Sprintf("exists %s. (%s(%s, %s) & (%s))", next, eName(rels[0]), cur, next, hopChain(next, rels[1:]))
}

// draw picks one random spec of a family over the binary relations es and
// the unary relations ss (E and S indices). A family name is a shape —
// hop<m>, tri, tri-alt, fo-neg, fo-neg-alt, tc, reach, reach-ifp, reach-pfp,
// gfp-live — and
// optionally "+src", "+dst" or "+mid": an S filter on x, on y, or (hop2
// only) on the middle node. reach always has its source set.
func draw(rng *rand.Rand, fam string, es, ss []int) spec {
	shape, filter, _ := strings.Cut(fam, "+")
	s := spec{fam: shape, src: -1, dst: -1, mid: -1}
	pick := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = es[rng.IntN(len(es))]
		}
		return out
	}
	set := ss[rng.IntN(len(ss))]
	switch filter {
	case "src":
		s.src = set
	case "dst":
		s.dst = set
	case "mid":
		s.mid = set
	}
	switch {
	case strings.HasPrefix(shape, "hop"):
		s.fam = "hop"
		s.rels = pick(int(shape[3] - '0'))
	case shape == "tri" || shape == "fo-neg":
		s.rels = pick(3)
	case shape == "tri-alt" || shape == "fo-neg-alt":
		s.fam, s.alt = strings.TrimSuffix(shape, "-alt"), true
		s.rels = pick(3)
	case shape == "tc":
		s.rels = pick(1 + rng.IntN(2))
		if len(s.rels) == 2 && s.rels[0] == s.rels[1] {
			s.rels = s.rels[:1]
		}
	case strings.HasPrefix(shape, "reach"):
		s.fam, s.fix = "reach", "lfp"
		if _, fix, ok := strings.Cut(shape, "-"); ok {
			s.fix = fix
		}
		s.rels = pick(1)
		s.back = rng.IntN(2) == 0
		s.src = set
	case shape == "gfp-live":
		s.rels = pick(1)
	default:
		panic("bench: unknown family " + fam)
	}
	return s
}

// weighted is one entry of a family mix.
type weighted struct {
	fam    string
	weight int
}

// drawDistinct draws count specs with pairwise different texts, families
// chosen by weight. It panics if the families cannot supply that many.
func drawDistinct(rng *rand.Rand, mix []weighted, count int, es, ss []int, seen map[string]bool) []spec {
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	out := make([]spec, 0, count)
	for tries := 0; len(out) < count; tries++ {
		if tries > 200*count+10000 {
			panic("bench: query families exhausted")
		}
		r := rng.IntN(total)
		fam := ""
		for _, w := range mix {
			if r < w.weight {
				fam = w.fam
				break
			}
			r -= w.weight
		}
		s := draw(rng, fam, es, ss)
		if t := s.text(); !seen[t] {
			seen[t] = true
			out = append(out, s)
		}
	}
	return out
}

// drawExactly draws, for every entry of mix, exactly weight distinct texts
// of that family.
func drawExactly(rng *rand.Rand, mix []weighted, es, ss []int, seen map[string]bool) []spec {
	var out []spec
	for _, part := range mix {
		out = append(out, drawDistinct(rng, []weighted{part}, part.weight, es, ss, seen)...)
	}
	return out
}

// opKind is what one operation asks of the server.
type opKind uint8

const (
	opRead   opKind = iota // POST /query, JSON answer
	opDrain                // POST /query stream:true, read to the trailer
	opUpdate               // POST /db/{name}/update
)

// op is one operation of a client's sequence.
type op struct {
	kind  opKind
	query int // index into workload.queries (reads and drains)
	limit int // drains: the LIMIT, 0 for the whole answer
	write int // updates: position in the write sequence
}

// query is one distinct text with its database.
type query struct {
	spec
	db   int // index into workload.graphs
	wire string
}

// workload is one fully generated traffic mix: the databases the servers
// load, the distinct texts, a warm-up pass and one op sequence per client.
// Everything is a function of (name, seed, clients, scale).
type workload struct {
	name    string
	routed  bool
	graphs  []*graph
	dbText  []string // Database.String() of each graph: what the servers parse
	queries []query
	warm    []op   // set-up: sent once by one client before the measured phase
	seqs    [][]op // per client; a client that runs off the end starts over
	// block is the number of consecutive ops of a client that make one unit
	// of identical work: every block of a sequence has the same mix. The
	// timings are taken per block and reported as the median block.
	block int
	// churn: the edges client 0 alternately inserts into and deletes from
	// E0 of graphs[0]; write k inserts churnEdges[k/2 % len] when k is even
	// and deletes the same edge when k is odd, so the content at version v
	// is the base graph for even v and base + one edge for odd v.
	churnEdges [][2]int
}

var workloadNames = []string{"hot-direct", "hot-routed", "miss-direct", "churn-direct"}

// Sizes at scale 1. missTexts exceeds both server caches (4096 results,
// 1024 plans) so the second half of a pass evicts.
const (
	hotBlocks   = 16 // per client, 256 ops each
	missTexts   = 6000
	churnPool   = 16
	churnBlocks = 32 // per client, 128 ops each
)

// newPCG derives an independent stream per (seed, purpose).
func newPCG(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// generate builds the named workload. scale divides the text counts and
// sequence lengths (the self-check and the tests use 20; runs use 1).
func generate(name string, seed uint64, clients, scale int) (*workload, error) {
	w := &workload{name: name}
	dbRng := newPCG(seed, "db")
	switch name {
	case "hot-direct", "hot-routed":
		// Same databases, texts and op sequences for both: the only
		// difference is the router in front of three replicas.
		w.routed = name == "hot-routed"
		g := genDense64(dbRng)
		w.graphs = []*graph{g}
		rng := newPCG(seed, "hot-texts")
		seen := map[string]bool{}
		// A fixed composition, filtered by sets of one size (every fourth
		// set has four members), so that the answer-size profile — and with
		// it the encode cost this workload measures — does not depend on
		// the seed.
		fours := []int{3, 7, 11, 15, 19, 23, 27, 31}
		for _, s := range drawExactly(rng, []weighted{
			{"hop2", 12}, {"hop3", 16}, {"tri", 4}, {"tri-alt", 4}, {"fo-neg", 4}, {"fo-neg-alt", 4},
			{"reach", 8}, {"gfp-live+src", 4}, {"tc", 2}, {"tc+src", 6},
		}, upTo(len(g.e)), fours, seen) {
			w.queries = append(w.queries, query{spec: s, wire: s.text()})
		}
		for q := range w.queries {
			w.warm = append(w.warm, op{kind: opRead, query: q})
		}
		// One block reads every text three times and drains it once, in a
		// fresh random order: 75 % JSON reads, 25 % full drains, and every
		// block is the same work.
		w.block = 4 * len(w.queries)
		for c := 0; c < clients; c++ {
			rng := newPCG(seed, fmt.Sprintf("hot-ops-%d", c))
			var seq []op
			for b := 0; b < max(hotBlocks/scale, 1); b++ {
				block := make([]op, 0, w.block)
				for q := range w.queries {
					block = append(block, op{kind: opRead, query: q}, op{kind: opRead, query: q}, op{kind: opRead, query: q}, op{kind: opDrain, query: q})
				}
				rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
				seq = append(seq, block...)
			}
			w.seqs = append(w.seqs, seq)
		}
	case "miss-direct":
		dense, sparse := genDense64(dbRng), genSparse2k(dbRng)
		w.graphs = []*graph{dense, sparse}
		rng := newPCG(seed, "miss-texts")
		// One block is 60 dense-route reads, 30 sparse-route reads and 10
		// LIMIT streams in random order: every block is the same mix.
		w.block = 100
		blocks := max(missTexts/w.block/scale, clients)
		nDense, nSparse, nStream := 60*blocks, 30*blocks, 10*blocks
		seen := map[string]bool{}
		add := func(specs []spec, db int, kind opKind, limit int) []op {
			var ops []op
			for _, s := range specs {
				w.queries = append(w.queries, query{spec: s, db: db, wire: s.text()})
				ops = append(ops, op{kind: kind, query: len(w.queries) - 1, limit: limit})
			}
			return ops
		}
		// Answers are kept small (filtered shapes): the result cache holds
		// 4096 of them at some 200 bytes a tuple, and a workload whose
		// memory is mostly cached answers measures the collector's timing.
		denseOps := add(drawDistinct(rng, []weighted{
			{"hop2+src", 6}, {"hop2+dst", 6}, {"hop3+src", 8}, {"hop3+dst", 8}, {"hop4+src", 5}, {"hop4+dst", 5},
			{"tri", 7}, {"tri-alt", 7}, {"fo-neg+src", 5}, {"fo-neg-alt+src", 5}, {"tc+src", 6}, {"reach", 8}, {"reach-ifp", 5}, {"reach-pfp", 4}, {"gfp-live+src", 8},
		}, nDense, upTo(len(dense.e)), upTo(len(dense.s)), seen), 0, opRead, 0)
		// sparse2k's first 32 sets are small and filter the reads; the
		// other 32 are large enough that LIMIT 64 cuts the streams short.
		// Two in five of the sparse-route reads are 3-hop queries, which
		// rebind a variable and so take the general sparse executor, not
		// the acyclic route: at 12 % of all ops they are where p90 falls,
		// inside their cluster instead of between two.
		small, large := upTo(32), upTo(64)[32:]
		sparseOps := add(drawDistinct(rng, []weighted{
			{"hop2+src", 20}, {"hop2+dst", 20}, {"hop2+mid", 20}, {"hop3+src", 40},
		}, nSparse, upTo(len(sparse.e)), small, seen), 1, opRead, 0)
		streamOps := add(drawDistinct(rng, []weighted{{"hop2+src", 1}, {"hop2+dst", 1}, {"hop2+mid", 1}}, nStream, upTo(len(sparse.e)), large, seen), 1, opDrain, streamLimit)
		w.seqs = make([][]op, clients)
		for b := 0; b < blocks; b++ {
			block := append(append(append([]op(nil), denseOps[60*b:60*b+60]...), sparseOps[30*b:30*b+30]...), streamOps[10*b:10*b+10]...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			w.seqs[b%clients] = append(w.seqs[b%clients], block...)
		}
		// The warm-up uses texts of its own, so that every measured op is
		// still a first touch.
		warm := drawDistinct(rng, []weighted{{"hop4", 1}, {"hop5+src", 1}, {"hop5+dst", 1}}, 256/scale+8, upTo(len(dense.e)), upTo(len(dense.s)), seen)
		for _, s := range warm {
			w.queries = append(w.queries, query{spec: s, wire: s.text()})
			w.warm = append(w.warm, op{kind: opRead, query: len(w.queries) - 1})
		}
	case "churn-direct":
		g := genForest64(dbRng)
		w.graphs = []*graph{g}
		rng := newPCG(seed, "churn-texts")
		seen := map[string]bool{}
		// 16 texts over E0, maintained on insert and recomputed after a
		// delete, and 16 over E1 alone, carried across every update: a
		// fixed composition, as in the hot set.
		for _, s := range drawExactly(rng, []weighted{{"tc", 1}, {"tc+src", 7}, {"reach", 8}}, []int{0}, upTo(len(g.s)), seen) {
			w.queries = append(w.queries, query{spec: s, wire: s.text()})
		}
		bigE1 := len(w.queries) // hop2(E1, E1) and, after it, hop3(E1, E1, E1)
		for _, s := range drawExactly(rng, []weighted{{"hop2", 1}, {"hop3", 1}, {"hop2+src", 4}, {"hop2+dst", 4}, {"hop3+src", 3}, {"reach", 3}}, []int{1}, upTo(len(g.s)), seen) {
			w.queries = append(w.queries, query{spec: s, wire: s.text()})
		}
		// An inserted edge leads from any node to the head of another path:
		// never present in the base forest, and no cycle, because heads
		// have no other edge into them.
		blocks := g.n / forestBlock
		for i := 0; i < churnPool; i++ {
			u := rng.IntN(g.n)
			head := (u/forestBlock + 1 + rng.IntN(blocks-1)) % blocks * forestBlock
			w.churnEdges = append(w.churnEdges, [2]int{u, head})
		}
		for q := range w.queries {
			w.warm = append(w.warm, op{kind: opRead, query: q})
		}
		w.warm = append(w.warm, op{kind: opUpdate, write: 0}, op{kind: opUpdate, write: 1})
		for q := range w.queries {
			w.warm = append(w.warm, op{kind: opRead, query: q})
		}
		// A block is 128 ops, 16 of them drains and, for client 0, an even
		// number of writes in place of reads (an insert is always followed
		// by its delete, so every block ends on the base content): 15 % of
		// all ops when the clients keep the same pace. Only client 0
		// writes, so versions are issued in one order. Reads go through
		// the texts in turn. Drains take the two unfiltered E1 texts: their
		// answers have the same size whatever the seed and are carried
		// across every update, so the stream figures here are those of
		// streaming beside writes, not of whichever text a drain happened
		// to recompute.
		w.block = 128
		const blockDrains = 16
		blockWrites := (w.block*15*clients/100 + 1) / 2 * 2
		writes := 2 // after the warm-up's insert and delete
		for c := 0; c < clients; c++ {
			rng := newPCG(seed, fmt.Sprintf("churn-ops-%d", c))
			var seq []op
			next := 0
			for b := 0; b < max(churnBlocks/scale, 1); b++ {
				block := make([]op, w.block)
				for i := range block {
					switch {
					case i < blockDrains:
						block[i] = op{kind: opDrain, query: bigE1 + i%2}
					case c == 0 && i < blockDrains+blockWrites:
						block[i] = op{kind: opUpdate}
					default:
						block[i] = op{kind: opRead, query: next % len(w.queries)}
						next++
					}
				}
				rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
				for i := range block {
					if block[i].kind == opUpdate {
						block[i].write = writes
						writes++
					}
				}
				seq = append(seq, block...)
			}
			w.seqs = append(w.seqs, seq)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	for _, g := range w.graphs {
		w.dbText = append(w.dbText, g.database().String())
	}
	return w, nil
}

// parseDatabases parses the database files as the servers will.
func (w *workload) parseDatabases() ([]*database.Database, error) {
	dbs := make([]*database.Database, len(w.dbText))
	for i, text := range w.dbText {
		db, err := database.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("parsing generated database %s: %w", w.graphs[i].name, err)
		}
		dbs[i] = db
	}
	return dbs, nil
}

// digest hashes everything the servers will receive: the database files
// and every op of the warm-up and of each client's sequence, in order.
func (w *workload) digest() string {
	h := fnv.New64a()
	for _, t := range w.dbText {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	put := func(o op) {
		fmt.Fprintf(h, "%d|%d|%d|", o.kind, o.limit, o.write)
		if o.kind != opUpdate {
			q := w.queries[o.query]
			h.Write([]byte(w.graphs[q.db].name))
			h.Write([]byte{0})
			h.Write([]byte(q.wire))
		}
		h.Write([]byte{'\n'})
	}
	for _, o := range w.warm {
		put(o)
	}
	for _, seq := range w.seqs {
		h.Write([]byte{1})
		for _, o := range seq {
			put(o)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
