package analysis

// Streamability classification (DESIGN.md §9): decide, at compile time,
// how a plan's buffer high watermark scales with the input — the static
// counterpart of the paper's dynamic buffer minimization. The lattice
// has three points:
//
//	BoundedConstant  ⊑  BoundedPerRecord  ⊑  Unbounded
//
// BoundedConstant queries are single-pass record pipelines whose
// working set is the projected paths of the record in flight (Q1, Q6:
// binding chain + output/operand/exists roles, with existence witnesses
// latched by the [1] first-witness predicate). BoundedPerRecord queries
// are still pipelines, but some construct blocks until the record's end
// tag — a negated existence condition proves absence only at close, a
// whole-record output or comparison needs the full subtree — so the
// peak is proportional to one record, not to the projected slice of it.
// Unbounded queries read state across the whole input: joins re-scan an
// absolute path per outer binding (Q8's hoisted sign-offs, paper
// Fig. 4(b)), whole-input aggregation cannot emit before end of stream,
// and absolute-path outputs buffer every match in the document.
//
// For the bounded classes the classifier also derives a concrete node
// budget: peak ≤ ConstNodes + RecordFactor·|record|, where |record| is
// the node count of the largest subtree matching Bound.RecordPath. The
// record path comes from the one cut function, shape.cut (shape.go):
// the binding path of the pass-through loop chain down to the
// shallowest loop whose variable the body uses, since everything the
// body reaches lies inside one binding of that loop. Shardable takes
// the same cut and also stops it before the first step that is not a
// child step with a name or wildcard test, so its partition path ends
// at the first descendant step: Q6's record path is
// /site/regions/descendant::item, its partition path /site/regions.
// DetectJoin requires both of its chains to be whole under that
// stricter cut.
//
// The bound is deliberately generous (it must hold for deferred
// sign-offs, which keep a record until its close tag arrives, and for
// the record-boundary overlap of the streaming pipeline); it is
// property-tested against Result.PeakBufferedNodes across the XMark and
// NDJSON suites.

import (
	"fmt"

	"gcx/internal/xpath"
	"gcx/internal/xqast"
)

// StreamClass is one point of the streamability lattice.
type StreamClass uint8

const (
	// BoundedConstant marks single-pass pipelines whose buffer holds a
	// constant number of records' projected paths, independent of input
	// length.
	BoundedConstant StreamClass = iota
	// BoundedPerRecord marks pipelines that retain whole records until
	// their close tag: peak ≤ k·record-size.
	BoundedPerRecord
	// Unbounded marks queries whose buffer grows with the input: joins,
	// whole-input aggregation, absolute-path outputs.
	Unbounded
)

func (c StreamClass) String() string {
	switch c {
	case BoundedConstant:
		return "bounded-constant"
	case BoundedPerRecord:
		return "bounded-per-record"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("StreamClass(%d)", uint8(c))
	}
}

// Bound is the static node-budget expression of a bounded plan:
// peak buffered nodes ≤ ConstNodes + RecordFactor·nodes(RecordPath),
// where nodes(RecordPath) is the element+text node count of the largest
// subtree matching RecordPath in the input at hand.
type Bound struct {
	// ConstNodes covers the input-independent population: the virtual
	// root, the open ancestor chain of the record, and one latched
	// witness per first-witness ([1]) projection path.
	ConstNodes int64
	// RecordFactor is the number of record subtrees that can be wholly
	// or partly buffered at once: the record in flight, and the one
	// before it, whose deferred sign-offs fire only when the pull that
	// buffered the next binding stops. Zero for loop-free queries.
	RecordFactor int64
	// RecordPath is the absolute path whose matches are the records of
	// the bound; empty when RecordFactor is zero.
	RecordPath xpath.Path
}

// Eval instantiates the bound for a concrete input, given the node
// count of its largest record subtree.
func (b Bound) Eval(recordNodes int64) int64 {
	return b.ConstNodes + b.RecordFactor*recordNodes
}

func (b Bound) String() string {
	if b.RecordFactor == 0 {
		return fmt.Sprintf("%d nodes", b.ConstNodes)
	}
	return fmt.Sprintf("%d + %d·nodes(%s)", b.ConstNodes, b.RecordFactor, b.RecordPath.String())
}

// StreamInfo is the classifier's verdict on one plan.
type StreamInfo struct {
	// Class is the lattice point.
	Class StreamClass
	// Reason says, in the analyzer's words, why the plan landed on
	// Class — the message strict compilation rejects Unbounded plans
	// with.
	Reason string
	// Bound is the static node budget; meaningful only for the bounded
	// classes (zero value for Unbounded).
	Bound Bound
}

// streamWalk collects the classification evidence in one pass over the
// normalized body.
type streamWalk struct {
	// absLoops are for-loops over absolute paths, discovery order.
	absLoops []*xqast.ForExpr
	// nestedAbs is an absolute-path loop found inside another loop's
	// body — a join or per-binding re-scan.
	nestedAbs *xqast.ForExpr
	rootAgg   *xqast.AggExpr // aggregation over an absolute path
	rootOut   *xqast.PathExpr
	rootCmp   *xqast.PathExpr
	// rootExists notes an existence condition over an absolute path.
	// Its [1] latch holds one witness per *context* (per match of the
	// path prefix), and the witness sign-off is based at the document
	// root — so witnesses accumulate until end of input.
	rootExists *xqast.ExistsCond
	anyExists  bool
	notCond    bool
	// varRefs are variables emitted whole via VarRef (plus attribute
	// value templates, which also serialize from the buffered node).
	varRefs map[string]bool
	// wholeCmpVars are variables whose full string value is a
	// comparison operand (an operand path with no steps).
	wholeCmpVars map[string]bool
}

func (w *streamWalk) expr(e xqast.Expr, depth int) {
	switch e := e.(type) {
	case *xqast.Sequence:
		for _, item := range e.Items {
			w.expr(item, depth)
		}
	case *xqast.Element:
		for _, a := range e.Attrs {
			if a.Expr != nil {
				w.operand(xqast.Operand{Kind: xqast.OperandPath, Path: *a.Expr})
			}
		}
		w.expr(e.Content, depth)
	case *xqast.PathExpr:
		if e.Base == xqast.RootVar && w.rootOut == nil {
			w.rootOut = e
		}
	case *xqast.AggExpr:
		if e.Arg.Base == xqast.RootVar && w.rootAgg == nil {
			w.rootAgg = e
		}
	case *xqast.VarRef:
		w.varRefs[e.Var] = true
	case *xqast.ForExpr:
		if e.In.Base == xqast.RootVar {
			w.absLoops = append(w.absLoops, e)
			if depth > 0 && w.nestedAbs == nil {
				w.nestedAbs = e
			}
		}
		w.expr(e.Body, depth+1)
	case *xqast.IfExpr:
		xqast.WalkConds(e.Cond, func(c xqast.Cond) {
			switch c := c.(type) {
			case *xqast.NotCond:
				w.notCond = true
			case *xqast.ExistsCond:
				w.anyExists = true
				if c.Arg.Base == xqast.RootVar && w.rootExists == nil {
					w.rootExists = c
				}
			case *xqast.CompareCond:
				w.operand(c.L)
				w.operand(c.R)
			}
		})
		w.expr(e.Then, depth)
		w.expr(e.Else, depth)
	}
}

// operand records the evidence of one comparison operand (or attribute
// value template, which is string-valued the same way).
func (w *streamWalk) operand(o xqast.Operand) {
	if o.Kind != xqast.OperandPath {
		return
	}
	if o.Path.Base == xqast.RootVar {
		if w.rootCmp == nil {
			p := o.Path
			w.rootCmp = &p
		}
		return
	}
	if len(o.Path.Path.Steps) == 0 {
		w.wholeCmpVars[o.Path.Base] = true
	}
}

// recordFactor is the number of record subtrees a bounded pipeline can
// hold at once: the record being evaluated, and the closed one before
// it, whose deferred sign-offs the engine runs when the pull that
// buffered the next binding stops. A loop pins no finished binding
// while it pulls the next (DESIGN.md §13), so no third record waits
// for a cursor to move on.
const recordFactor = 2

// constNodes derives the input-independent term of the bound from the
// projection roles: a fixed allowance for the virtual root and open
// ancestor chain, plus per role room for the nodes its path can pin
// outside any record (prefix elements and latched [1] witnesses).
func constNodes(p *Plan) int64 {
	c := int64(64)
	for _, r := range p.Roles {
		c += 4*int64(len(r.Path.Steps)) + 8
	}
	return c
}

// Streamability classifies a compiled plan into the streamability
// lattice and, for the bounded classes, derives its static node budget.
// The verdict is computed once at analysis time and stored as
// Plan.Stream. A detected join (Plan.Join, decided first) is Unbounded
// for its hash table, not for its buffer.
func Streamability(p *Plan) StreamInfo {
	w := &streamWalk{varRefs: map[string]bool{}, wholeCmpVars: map[string]bool{}}
	w.expr(p.Normalized.Body, 0)

	if j := p.Join; j != nil {
		return StreamInfo{Class: Unbounded, Reason: fmt.Sprintf(
			"detected join: each build tuple under %s goes into the join's hash table at its close, so the buffer holds no build node past it, but the table grows with the build side",
			j.BuildPath.String())}
	}
	if w.nestedAbs != nil {
		return StreamInfo{Class: Unbounded, Reason: fmt.Sprintf(
			"join: the loop over %s restarts for every binding of an outer loop, so its matches are parked in the buffer until the outer loop completes (hoisted sign-offs)",
			w.nestedAbs.In.Path.String())}
	}
	if len(w.absLoops) > 1 {
		return StreamInfo{Class: Unbounded, Reason: fmt.Sprintf(
			"multiple loops over absolute paths (%s, %s): a later loop's matches accumulate in the buffer while an earlier one is still draining",
			w.absLoops[0].In.Path.String(), w.absLoops[1].In.Path.String())}
	}
	if w.rootAgg != nil {
		return StreamInfo{Class: Unbounded, Reason: fmt.Sprintf(
			"whole-input aggregation %s(%s): the aggregate cannot be emitted before end of input, so its witnesses stay relevant for the whole stream",
			w.rootAgg.Fn, w.rootAgg.Arg.Path.String())}
	}
	if w.rootOut != nil {
		return StreamInfo{Class: Unbounded, Reason: fmt.Sprintf(
			"absolute-path output %s: every match in the document is buffered for output",
			w.rootOut.Path.String())}
	}
	if w.rootCmp != nil {
		return StreamInfo{Class: Unbounded, Reason: fmt.Sprintf(
			"comparison against the absolute path %s: every candidate string value in the document is buffered",
			w.rootCmp.Path.String())}
	}
	if w.rootExists != nil {
		// Empirically O(input): the [1] latch is per context (per match
		// of the path prefix), and the witness sign-off is based at the
		// document root, which closes only at end of input — so one
		// witness subtree per context accumulates in the buffer.
		return StreamInfo{Class: Unbounded, Reason: fmt.Sprintf(
			"existence condition over the absolute path %s: the first-witness latch holds one witness per context and its sign-off is rooted at the document, so witnesses accumulate until end of input",
			w.rootExists.Arg.Path.String())}
	}

	cn := constNodes(p)
	if len(w.absLoops) == 0 {
		return StreamInfo{Class: BoundedConstant,
			Reason: "no for-loops: the query touches a constant set of projected nodes",
			Bound:  Bound{ConstNodes: cn}}
	}

	// One absolute pipeline: its records are the cut of the loop's
	// shape. The loop need not sit in a constant wrapper — the checks
	// above leave nothing outside it that reads the input.
	s, _ := recognise(w.absLoops[0])
	cut := s.cut(anyStep)
	bound := Bound{
		ConstNodes:   cn,
		RecordFactor: recordFactor,
		RecordPath:   s.path(cut),
	}
	recordVar := s.Chain[cut-1].Var

	demote := func(reason string) StreamInfo {
		return StreamInfo{Class: BoundedPerRecord, Reason: reason, Bound: bound}
	}
	switch {
	case w.notCond:
		return demote("negated existence condition: absence is only provable when the record closes, so the record's projected subtree is retained until its end tag")
	case w.anyExists && p.Opts.DisableFirstWitness:
		return demote("first-witness pruning disabled: every witness candidate within the record is buffered instead of only the latched first")
	case p.Opts.CoarseGranularity:
		return demote("coarse-granularity projection buffers whole element subtrees within each record")
	case w.varRefs[recordVar]:
		return demote("the record subtree itself is emitted, so each record is buffered whole")
	case w.wholeCmpVars[recordVar]:
		return demote("the record's full string value is a comparison operand, so each record is buffered whole")
	}
	return StreamInfo{Class: BoundedConstant,
		Reason: fmt.Sprintf("single-pass pipeline over %s: the working set is the projected paths of the records in flight, purged by sign-off garbage collection at record boundaries", bound.RecordPath.String()),
		Bound:  bound}
}
