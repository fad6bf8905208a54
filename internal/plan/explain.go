package plan

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Explain is the JSON-ready annotated view of a compiled plan: the DAG with
// per-node density decisions, the binder summaries with maintenance and
// delta eligibility, and — when the query was actually executed with an
// eval.Observer that times nodes — per-node eval counts and wall time plus
// per-binder stage counts from the trace events. It is the payload of the server's
// "explain": true mode and of bvq -explain.
type Explain struct {
	Query string `json:"query"`
	// Width is the width of the DAG below; MinimizedFrom, when set, the larger
	// width of Query as written (Plan.MinimizedFrom).
	Width         int `json:"width"`
	MinimizedFrom int `json:"minimized_from,omitempty"`
	Domain        int `json:"domain"`

	NumNodes int `json:"num_nodes"`
	Hoisted  int `json:"hoisted_nodes"`
	CSEHits  int `json:"cse_hits"`
	Root     int `json:"root"`

	// Route is the backend route the evaluator picks for this plan against
	// this domain ("dense" or "sparse"; empty = unevaluable);
	// DenseCostNS and SparseCostNS the two modelled times it was picked by
	// (Density.DenseCost, SparseCost; no sparse figure without a sparse route).
	Route         string  `json:"route,omitempty"`
	DenseCostNS   float64 `json:"dense_cost_ns,omitempty"`
	SparseCostNS  float64 `json:"sparse_cost_ns,omitempty"`
	SpaceFeasible bool    `json:"space_feasible"`
	SparseOK      bool    `json:"sparse_ok"`
	Blocker       string  `json:"sparse_blocker,omitempty"`
	RootEst       float64 `json:"root_tuple_estimate,omitempty"`

	// Maintainable mirrors Maint.OK; Footprint is the relation dependency
	// set whose content result-cache keys name.
	Maintainable bool     `json:"maintainable"`
	Footprint    []string `json:"footprint,omitempty"`

	Binders []ExplainBinder `json:"binders,omitempty"`
	Nodes   []ExplainNode   `json:"nodes"`

	// Executed marks that per-node Evals/WallUS and per-binder Stages carry
	// real measurements rather than zeros.
	Executed bool `json:"executed"`
}

// ExplainBinder summarizes one fixpoint binder.
type ExplainBinder struct {
	Binder int    `json:"binder"`
	Op     string `json:"op"`
	Rel    string `json:"rel"`
	Node   int    `json:"node"`
	// DeltaOK: semi-naive delta evaluation is admissible. Seeded: the binder
	// is restartable from a cached stage under incremental maintenance.
	DeltaOK bool `json:"delta_ok"`
	Seeded  bool `json:"seeded"`
	// SchedNodes sizes the per-stage recompute task list.
	SchedNodes int `json:"sched_nodes"`
	// Execution annotations (Executed=true): fixpoint stages run, summed
	// |delta| over semi-naive passes, busy time inside stage work.
	Stages      int64 `json:"stages,omitempty"`
	DeltaTuples int64 `json:"delta_tuples,omitempty"`
	BusyUS      int64 `json:"busy_us,omitempty"`
	// HandOffStage is the stage after which the run moved the loop to the
	// other backend (the last such stage; 0: it stayed where it started).
	HandOffStage int `json:"hand_off_stage,omitempty"`
}

// ExplainNode is one annotated DAG node.
type ExplainNode struct {
	ID    int    `json:"id"`
	Op    string `json:"op"`
	Label string `json:"label"`
	Kids  []int  `json:"kids,omitempty"`
	// Binder is the owning binder for recursion atoms and fixpoint nodes,
	// -1 otherwise.
	Binder int `json:"binder"`
	// Hoisted: recursion-free, evaluated once per query.
	Hoisted bool `json:"hoisted"`
	// Density annotations (when the analysis was supplied): the sparse
	// algebra's negative-complement polarity, the support axes as variable
	// names, and the tuple estimate.
	Neg     bool    `json:"neg,omitempty"`
	Support string  `json:"support,omitempty"`
	Est     float64 `json:"tuple_estimate,omitempty"`
	// Execution annotations (Executed=true): times evaluated and cumulative
	// wall time, inclusive of on-demand child computation.
	Evals  int64 `json:"evals,omitempty"`
	WallUS int64 `json:"wall_us,omitempty"`
}

func opName(op Op) string {
	switch op {
	case OpAtom:
		return "atom"
	case OpEq:
		return "eq"
	case OpConst:
		return "const"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpExists:
		return "exists"
	case OpForall:
		return "forall"
	case OpFix:
		return "fix"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// varName names an axis by its variable, qualified by the axis (p@2) when an
// earlier axis carries the same name, so that a tree reads back to its plan.
func (p *Plan) varName(axis int) string {
	if axis < 0 || axis >= len(p.Vars) {
		return fmt.Sprintf("#%d", axis)
	}
	if v := p.Vars[axis]; slices.Index(p.Vars, v) < axis {
		return fmt.Sprintf("%s@%d", v, axis)
	}
	return string(p.Vars[axis])
}

func (p *Plan) axisList(axes []int) string {
	parts := make([]string, len(axes))
	for i, a := range axes {
		parts[i] = p.varName(a)
	}
	return strings.Join(parts, ",")
}

func (p *Plan) nodeLabel(id int) string {
	nd := &p.Nodes[id]
	switch nd.Op {
	case OpAtom:
		rel := nd.Rel
		if nd.Binder >= 0 {
			rel = fmt.Sprintf("%s·b%d", rel, nd.Binder)
		}
		return fmt.Sprintf("%s(%s)", rel, p.axisList(nd.Args))
	case OpEq:
		return fmt.Sprintf("%s = %s", p.varName(nd.L), p.varName(nd.R))
	case OpConst:
		if nd.Truth {
			return "true"
		}
		return "false"
	case OpNot:
		return "¬"
	case OpAnd:
		return "∧"
	case OpOr:
		return "∨"
	case OpExists:
		return "∃" + p.varName(nd.Axis)
	case OpForall:
		return "∀" + p.varName(nd.Axis)
	case OpFix:
		fx := nd.Fix
		return fmt.Sprintf("[%s %s(%s)](%s)", fx.Op, fx.Rel,
			p.axisList(fx.VarAxes), p.axisList(fx.ArgAxes))
	default:
		return opName(nd.Op)
	}
}

func supportVars(p *Plan, mask uint64) string {
	if mask == 0 {
		return ""
	}
	parts := make([]string, 0, bits.OnesCount64(mask))
	for a := 0; a < len(p.Vars); a++ {
		if mask&(1<<uint(a)) != 0 {
			parts = append(parts, p.varName(a))
		}
	}
	return strings.Join(parts, ",")
}

// Explain builds the annotated view. den may be nil (no density analysis:
// node Mode/Support/Est and the space/sparse verdicts stay zero); domain is
// the database size den was computed for (0 when unknown).
func (p *Plan) Explain(den *Density) *Explain {
	ex := &Explain{
		Query:         p.Query.String(),
		Width:         len(p.Vars),
		MinimizedFrom: p.MinimizedFrom(),
		NumNodes:      p.NumNodes(),
		Hoisted:       p.HoistedNodes(),
		CSEHits:       p.CSEHits,
		Root:          p.Root,
	}
	if p.Maint != nil {
		ex.Maintainable = p.Maint.OK
		ex.Footprint = append([]string(nil), p.Maint.Rels...)
	}
	if den != nil {
		ex.Domain = den.N
		ex.SpaceFeasible = den.SpaceFeasible
		ex.SparseOK = den.SparseOK
		ex.Blocker = den.Blocker
		ex.RootEst = den.RootEst
		if ex.DenseCostNS = math.Round(den.DenseCost); den.SparseOK {
			ex.SparseCostNS = math.Round(den.SparseCost)
		}
	}
	ex.Nodes = make([]ExplainNode, len(p.Nodes))
	for id := range p.Nodes {
		nd := &p.Nodes[id]
		en := ExplainNode{
			ID:      id,
			Op:      opName(nd.Op),
			Label:   p.nodeLabel(id),
			Kids:    append([]int(nil), nd.Kids...),
			Binder:  -1,
			Hoisted: p.Deps[id] == 0,
		}
		if nd.Op == OpAtom {
			en.Binder = nd.Binder
		}
		if nd.Op == OpFix {
			en.Binder = nd.Fix.Binder
		}
		if den != nil {
			en.Neg = den.Neg[id]
			en.Support = supportVars(p, den.Support[id])
			en.Est = den.Est[id]
		}
		ex.Nodes[id] = en
	}
	ex.Binders = make([]ExplainBinder, p.NumBinders)
	for b := 0; b < p.NumBinders; b++ {
		fx := p.Nodes[p.FixOf[b]].Fix
		eb := ExplainBinder{
			Binder:     b,
			Op:         fx.Op.String(),
			Rel:        fx.Rel,
			Node:       p.FixOf[b],
			DeltaOK:    p.DeltaOK[b],
			SchedNodes: len(p.Sched[b]),
		}
		if p.Maint != nil && b < len(p.Maint.Seeded) {
			eb.Seeded = p.Maint.Seeded[b]
		}
		ex.Binders[b] = eb
	}
	return ex
}

// AttachProfile folds an execution profile (per-node eval counts and
// nanoseconds, indexed by node id — eval.Observer's Evals and NS) into the
// node annotations and marks the explain as executed.
func (ex *Explain) AttachProfile(evals, ns []int64) {
	for i := range ex.Nodes {
		if i < len(evals) {
			ex.Nodes[i].Evals = evals[i]
		}
		if i < len(ns) {
			ex.Nodes[i].WallUS = ns[i] / 1e3
		}
	}
	ex.Executed = true
}

// AttachBinderStages adds one binder's execution totals (from trace stage
// events): fixpoint stages run, summed |delta| tuples, busy nanoseconds, and
// the stage a hand-off followed (0: none).
func (ex *Explain) AttachBinderStages(binder int, stages, deltaTuples, busyNS int64, handOff int) {
	if binder < 0 || binder >= len(ex.Binders) {
		return
	}
	ex.Binders[binder].Stages += stages
	ex.Binders[binder].DeltaTuples += deltaTuples
	ex.Binders[binder].BusyUS += busyNS / 1e3
	ex.Binders[binder].HandOffStage = max(ex.Binders[binder].HandOffStage, handOff)
	ex.Executed = true
}

// Render writes the explain as an ASCII tree. The DAG is printed as a tree
// rooted at Root; a shared node (CSE) prints in full at its first visit and
// as a back-reference (↺ n<id>) afterwards, so the output stays linear in
// the DAG size.
func (ex *Explain) Render(w io.Writer) {
	fmt.Fprintf(w, "query: %s\n", ex.Query)
	if ex.MinimizedFrom > 0 {
		fmt.Fprintf(w, "minimized: width %d → %d\n", ex.MinimizedFrom, ex.Width)
	}
	fmt.Fprintf(w, "width %d", ex.Width)
	if ex.Domain > 0 {
		fmt.Fprintf(w, " · domain %d", ex.Domain)
	}
	fmt.Fprintf(w, " · %d nodes (%d hoisted, %d cse hits)", ex.NumNodes, ex.Hoisted, ex.CSEHits)
	if ex.Route != "" {
		fmt.Fprintf(w, " · route %s", ex.Route)
	}
	if ex.SparseCostNS > 0 {
		fmt.Fprintf(w, " (model: dense %.3gus, sparse %.3gus)", ex.DenseCostNS/1e3, ex.SparseCostNS/1e3)
	} else if ex.DenseCostNS > 0 {
		fmt.Fprintf(w, " (model: dense %.3gus)", ex.DenseCostNS/1e3)
	}
	if ex.Maintainable {
		fmt.Fprintf(w, " · maintainable")
	}
	fmt.Fprintln(w)
	if len(ex.Footprint) > 0 {
		fmt.Fprintf(w, "footprint: %s\n", strings.Join(ex.Footprint, " "))
	}
	if !ex.SparseOK && ex.Blocker != "" {
		fmt.Fprintf(w, "sparse blocked: %s\n", ex.Blocker)
	}
	for _, b := range ex.Binders {
		fmt.Fprintf(w, "binder %d: %s %s · %d sched nodes", b.Binder, b.Op, b.Rel, b.SchedNodes)
		if b.DeltaOK {
			fmt.Fprintf(w, " · semi-naive")
		}
		if b.Seeded {
			fmt.Fprintf(w, " · seedable")
		}
		if ex.Executed && b.Stages > 0 {
			fmt.Fprintf(w, " · %d stages, %d delta tuples, %dus busy", b.Stages, b.DeltaTuples, b.BusyUS)
		}
		if b.HandOffStage > 0 {
			fmt.Fprintf(w, " · handed to the other backend after stage %d", b.HandOffStage)
		}
		fmt.Fprintln(w)
	}
	seen := map[int]bool{ex.Root: true}
	root := &ex.Nodes[ex.Root]
	fmt.Fprintf(w, "%s\n", ex.nodeLine(ex.Root))
	for i, kid := range root.Kids {
		ex.renderNode(w, kid, "", i == len(root.Kids)-1, seen)
	}
}

func (ex *Explain) renderNode(w io.Writer, id int, prefix string, last bool, seen map[int]bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	n := &ex.Nodes[id]
	if seen[id] {
		fmt.Fprintf(w, "%s%s↺ n%d %s\n", prefix, branch, id, n.Label)
		return
	}
	seen[id] = true
	fmt.Fprintf(w, "%s%s%s\n", prefix, branch, ex.nodeLine(id))
	for i, kid := range n.Kids {
		ex.renderNode(w, kid, childPrefix, i == len(n.Kids)-1, seen)
	}
}

// nodeLine formats one node's tree line: id, label and the bracketed
// annotations (hoisting, estimate, profile).
func (ex *Explain) nodeLine(id int) string {
	n := &ex.Nodes[id]
	var ann []string
	if n.Hoisted {
		ann = append(ann, "hoisted")
	}
	if n.Est >= 1 {
		ann = append(ann, fmt.Sprintf("~%.3g tuples", n.Est))
	}
	if ex.Executed && n.Evals > 0 {
		ann = append(ann, fmt.Sprintf("%d evals %dus", n.Evals, n.WallUS))
	}
	line := fmt.Sprintf("n%d %s", id, n.Label)
	if len(ann) > 0 {
		line += "  [" + strings.Join(ann, " · ") + "]"
	}
	return line
}
