package analysis

import (
	"gcx/internal/xpath"
	"gcx/internal/xqast"
)

// JoinInfo describes a detected two-variable equality join (the XMark
// Q8/Q9 shape): an outer loop over ProbePath whose body re-scans the
// whole document along BuildPath, keeping only build bindings whose
// BuildKey value equals the probe binding's ProbeKey value. The engine
// executes this plan with the internal/join operator — one pass over
// the input, the build side materialized into a keyed hash table —
// instead of nested re-evaluation (DESIGN.md §10).
type JoinInfo struct {
	// ProbeHead is the outermost loop of the (normalized, single-step)
	// probe chain; ProbeLoop is the innermost, binding ProbeVar to one
	// probe record. For single-step probe paths they are the same node.
	ProbeHead *xqast.ForExpr
	ProbeLoop *xqast.ForExpr
	// BuildHead is the root-based loop inside the probe body that
	// re-scans the document: the head of the build chain.
	BuildHead *xqast.ForExpr

	ProbeVar string
	BuildVar string
	// ProbeSlot and BuildSlot are the two variables' environment slots
	// (xqast.ForExpr.Slot of the loops binding them).
	ProbeSlot int
	BuildSlot int

	// ProbePath and BuildPath are the absolute binding paths of the two
	// sides; all steps are child-axis name or wildcard tests.
	ProbePath xpath.Path
	BuildPath xpath.Path

	// ProbeKey and BuildKey are the key paths of the equality predicate,
	// relative to ProbeVar and BuildVar respectively.
	ProbeKey xpath.Path
	BuildKey xpath.Path

	// Then is the output expression evaluated once per matching build
	// binding. It uses only BuildVar (and variables it binds itself) and
	// contains no sign-off statements, so it is pure: capturing its
	// events once per build tuple and replaying them per match is
	// equivalent to nested re-evaluation.
	Then xqast.Expr

	// Divergence is the index of the first step where ProbePath and
	// BuildPath differ. Both steps are name tests with different names,
	// so the two sides bind disjoint subtrees (no self-join aliasing)
	// and a sharded run can split ancestor closes at this depth.
	Divergence int
}

// Strategy names the runtime plan for explain output. Output order must
// be probe-major (nested-loop semantics), so no match can be emitted
// before the build side is complete; only the build side needs a hash
// table, while the probe side streams through as captured event groups.
func (j *JoinInfo) Strategy() string {
	return "build-side hash (probe streamed, build materialized)"
}

// DetectJoin recognizes the join shape on the rewritten plan. It
// returns nil for anything that does not provably match; callers treat
// nil as "run the nested-loop path".
func DetectJoin(p *Plan) *JoinInfo {
	if p.Rewritten == nil {
		return nil
	}
	head := unwrapConstant(p.Rewritten.Body)
	probe, ok := head.(*xqast.ForExpr)
	if !ok || probe.In.Base != xqast.RootVar {
		return nil
	}
	j := &JoinInfo{ProbeHead: probe}

	// Follow the probe chain of pass-through single-step loops. The
	// rewriter intersperses sign-off statements; they are transparent
	// here (they execute unchanged in either mode). Variable shadowing
	// anywhere in the chain disqualifies the plan.
	seen := map[string]bool{xqast.RootVar: true}
	cur := probe
	for {
		if !chainStep(cur.In.Path) || seen[cur.Var] {
			return nil
		}
		seen[cur.Var] = true
		j.ProbePath = j.ProbePath.Append(cur.In.Path.Steps[0])
		next, ok := passThroughBody(cur)
		if !ok {
			break
		}
		cur = next
	}
	j.ProbeLoop = cur
	j.ProbeVar, j.ProbeSlot = cur.Var, cur.Slot

	// Locate the build head: exactly one root-based loop inside the
	// probe body, not nested under another loop (so it runs at most once
	// per probe binding; under a condition it may run zero times).
	j.BuildHead = findBuildHead(j.ProbeLoop.Body)
	if j.BuildHead == nil {
		return nil
	}

	// Follow the build chain: strictly pass-through single-step loops
	// with no interleaved statements — hoisting moves all build-side
	// sign-offs to the top level, and any that remained would change
	// execution counts under the join operator.
	cur = j.BuildHead
	for {
		if !chainStep(cur.In.Path) || seen[cur.Var] {
			return nil
		}
		seen[cur.Var] = true
		j.BuildPath = j.BuildPath.Append(cur.In.Path.Steps[0])
		next, ok := strictBody(cur.Body)
		if !ok {
			break
		}
		cur = next
	}
	j.BuildVar, j.BuildSlot = cur.Var, cur.Slot

	// The innermost build body must be exactly
	// "if (key = key) then Then else ()".
	cond, ok := singleton(cur.Body).(*xqast.IfExpr)
	if !ok || !isEmptyExpr(cond.Else) {
		return nil
	}
	cmp, ok := cond.Cond.(*xqast.CompareCond)
	if !ok || cmp.Op != xqast.CmpEq {
		return nil
	}
	if cmp.L.Kind != xqast.OperandPath || cmp.R.Kind != xqast.OperandPath {
		return nil
	}
	switch {
	case cmp.L.Path.Base == j.BuildVar && cmp.R.Path.Base == j.ProbeVar:
		j.BuildKey, j.ProbeKey = cmp.L.Path.Path, cmp.R.Path.Path
	case cmp.L.Path.Base == j.ProbeVar && cmp.R.Path.Base == j.BuildVar:
		j.ProbeKey, j.BuildKey = cmp.L.Path.Path, cmp.R.Path.Path
	default:
		return nil
	}
	j.Then = cond.Then

	// Then must be pure build-side output: only BuildVar (plus its own
	// local bindings), no sign-offs, no root access.
	if !usesOnly(j.Then, map[string]bool{j.BuildVar: true}, nil, false) {
		return nil
	}
	// The rest of the probe body may use only the probe binding (plus
	// local bindings); sign-offs are transparent.
	if !usesOnly(j.ProbeLoop.Body, map[string]bool{j.ProbeVar: true}, j.BuildHead, true) {
		return nil
	}

	// The two sides must bind provably disjoint subtrees: the paths
	// diverge at a name/name step with different names.
	d, ok := divergence(j.ProbePath, j.BuildPath)
	if !ok {
		return nil
	}
	j.Divergence = d
	return j
}

// unwrapConstant descends through the constant output wrapper — element
// constructors with literal attributes and sequences whose other items
// are literals, empties or sign-offs — to the single dynamic expression
// inside, if there is exactly one.
func unwrapConstant(e xqast.Expr) xqast.Expr {
	for {
		switch v := e.(type) {
		case *xqast.Element:
			for _, a := range v.Attrs {
				if a.Expr != nil {
					return e
				}
			}
			e = v.Content
		case *xqast.Sequence:
			var dyn xqast.Expr
			for _, item := range v.Items {
				switch item.(type) {
				case *xqast.StringLit, *xqast.Empty, *xqast.SignOff:
					continue
				}
				if dyn != nil {
					return e // more than one dynamic item
				}
				dyn = item
			}
			if dyn == nil {
				return e
			}
			e = dyn
		default:
			return e
		}
	}
}

// chainStep accepts the binding path of one normalized chain loop: a
// single child step with a name or wildcard test and no [1] predicate.
func chainStep(p xpath.Path) bool {
	if len(p.Steps) != 1 {
		return false
	}
	s := p.Steps[0]
	return s.Axis == xpath.Child && !s.FirstOnly &&
		(s.Test.Kind == xpath.TestName || s.Test.Kind == xpath.TestWildcard)
}

// passThroughBody returns the next chain loop when f's body — ignoring
// interleaved sign-offs — is exactly one loop over f's own variable.
func passThroughBody(f *xqast.ForExpr) (*xqast.ForExpr, bool) {
	body := f.Body
	if seq, ok := body.(*xqast.Sequence); ok {
		var dyn xqast.Expr
		for _, item := range seq.Items {
			if _, ok := item.(*xqast.SignOff); ok {
				continue
			}
			if dyn != nil {
				return nil, false
			}
			dyn = item
		}
		body = dyn
	}
	next, ok := body.(*xqast.ForExpr)
	if !ok || next.In.Base != f.Var {
		return nil, false
	}
	return next, true
}

// strictBody is passThroughBody without sign-off tolerance, for the
// build chain.
func strictBody(body xqast.Expr) (*xqast.ForExpr, bool) {
	next, ok := singleton(body).(*xqast.ForExpr)
	if !ok {
		return nil, false
	}
	return next, true
}

// singleton unwraps a Sequence holding exactly one non-empty item.
func singleton(e xqast.Expr) xqast.Expr {
	seq, ok := e.(*xqast.Sequence)
	if !ok {
		return e
	}
	var dyn xqast.Expr
	for _, item := range seq.Items {
		if _, ok := item.(*xqast.Empty); ok {
			continue
		}
		if dyn != nil {
			return e
		}
		dyn = item
	}
	if dyn == nil {
		return e
	}
	return dyn
}

func isEmptyExpr(e xqast.Expr) bool {
	switch v := e.(type) {
	case nil, *xqast.Empty:
		return true
	case *xqast.Sequence:
		for _, item := range v.Items {
			if !isEmptyExpr(item) {
				return false
			}
		}
		return true
	}
	return false
}

// findBuildHead returns the single root-based loop beneath e that is
// not nested inside another loop, or nil if there is none or more than
// one (or one under a loop — it would then run more than once per probe
// binding).
func findBuildHead(e xqast.Expr) *xqast.ForExpr {
	var found *xqast.ForExpr
	bad := false
	var walk func(e xqast.Expr, underLoop bool)
	walk = func(e xqast.Expr, underLoop bool) {
		if bad {
			return
		}
		switch v := e.(type) {
		case *xqast.Sequence:
			for _, item := range v.Items {
				walk(item, underLoop)
			}
		case *xqast.Element:
			walk(v.Content, underLoop)
		case *xqast.IfExpr:
			walk(v.Then, underLoop)
			walk(v.Else, underLoop)
		case *xqast.ForExpr:
			if v.In.Base == xqast.RootVar {
				if found != nil || underLoop {
					bad = true
					return
				}
				found = v
				return // the build subtree is validated separately
			}
			walk(v.Body, true)
		}
	}
	walk(e, false)
	if bad {
		return nil
	}
	return found
}

// usesOnly reports whether e references only the allowed variables plus
// variables bound by loops within e itself. skip is a subtree that is
// not inspected (the build head inside the probe body). When
// signOffsTransparent, sign-off statements are ignored entirely — they
// execute identically under the join operator; otherwise any sign-off
// fails the check (its execution count would change).
func usesOnly(e xqast.Expr, allowed map[string]bool, skip *xqast.ForExpr, signOffsTransparent bool) bool {
	okVar := func(name string) bool { return allowed[name] }
	var okCond func(c xqast.Cond) bool
	okCond = func(c xqast.Cond) bool {
		switch c := c.(type) {
		case *xqast.ExistsCond:
			return okVar(c.Arg.Base)
		case *xqast.CompareCond:
			if c.L.Kind == xqast.OperandPath && !okVar(c.L.Path.Base) {
				return false
			}
			if c.R.Kind == xqast.OperandPath && !okVar(c.R.Path.Base) {
				return false
			}
			return true
		case *xqast.NotCond:
			return okCond(c.C)
		case *xqast.AndCond:
			return okCond(c.L) && okCond(c.R)
		case *xqast.OrCond:
			return okCond(c.L) && okCond(c.R)
		}
		return true
	}
	var walk func(e xqast.Expr) bool
	walk = func(e xqast.Expr) bool {
		if e == nil {
			return true
		}
		switch v := e.(type) {
		case *xqast.Empty, *xqast.StringLit:
			return true
		case *xqast.SignOff:
			return signOffsTransparent
		case *xqast.VarRef:
			return okVar(v.Var)
		case *xqast.PathExpr:
			return okVar(v.Base)
		case *xqast.AggExpr:
			return okVar(v.Arg.Base)
		case *xqast.Sequence:
			for _, item := range v.Items {
				if !walk(item) {
					return false
				}
			}
			return true
		case *xqast.Element:
			for _, a := range v.Attrs {
				if a.Expr != nil && !okVar(a.Expr.Base) {
					return false
				}
			}
			return walk(v.Content)
		case *xqast.IfExpr:
			return okCond(v.Cond) && walk(v.Then) && walk(v.Else)
		case *xqast.ForExpr:
			if v == skip {
				return true
			}
			if !okVar(v.In.Base) {
				return false
			}
			saved := allowed[v.Var]
			allowed[v.Var] = true
			ok := walk(v.Body)
			allowed[v.Var] = saved
			return ok
		}
		return false
	}
	return walk(e)
}

// divergence returns the index of the first differing step of the two
// binding paths, requiring a name/name mismatch there so the bound
// subtrees are disjoint. Prefix relationships (one side an ancestor of
// the other) are rejected.
func divergence(probe, build xpath.Path) (int, bool) {
	n := len(probe.Steps)
	if len(build.Steps) < n {
		n = len(build.Steps)
	}
	for i := 0; i < n; i++ {
		if probe.Steps[i] == build.Steps[i] {
			continue
		}
		p, b := probe.Steps[i], build.Steps[i]
		if p.Test.Kind == xpath.TestName && b.Test.Kind == xpath.TestName &&
			p.Test.Name != b.Test.Name {
			return i, true
		}
		return 0, false
	}
	return 0, false // one path is a prefix of the other
}
