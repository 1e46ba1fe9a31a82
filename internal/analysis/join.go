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

	// BuildRole is BuildVar's binding role: a node carrying it is a
	// build tuple, which the engine takes into the join at its close.
	BuildRole int
	// Release are the hoisted sign-offs of every build-side role — the
	// build key's, Then's and, last, BuildRole — with Base BuildVar and
	// paths relative to it. Once the engine has taken a tuple's keys and
	// payload it runs them on the tuple, and skips their top-level
	// statements, which stay in the plan for the nested-loop evaluation
	// (DESIGN.md §10). BuildRole goes last because its removal purges
	// the tuple.
	Release []*xqast.SignOff
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
	// The probe side is the query's shape (sign-offs are transparent:
	// they execute unchanged in either mode), whole under the child-step
	// cut: child name or wildcard steps, and a body that uses no chain
	// variable but the innermost, ProbeVar.
	probe, _ := recognise(p.Rewritten.Body)
	n := len(probe.Chain)
	if n == 0 || probe.cut(childSteps) != n {
		return nil
	}
	loop := probe.Chain[n-1]
	j := &JoinInfo{
		ProbeHead: probe.Chain[0], ProbeLoop: loop,
		ProbeVar: loop.Var, ProbeSlot: loop.Slot,
		ProbePath: probe.path(n),
	}

	// Locate the build head: exactly one root-based loop inside the
	// probe body, not nested under another loop (so it runs at most once
	// per probe binding; under a condition it may run zero times).
	j.BuildHead = findBuildHead(loop.Body)
	if j.BuildHead == nil {
		return nil
	}

	// The build side is the build head's shape under the same cut, and
	// its loops follow each other with no statement in between: hoisting
	// moves all build-side sign-offs to the top level, and any that
	// remained would change execution counts under the join operator.
	build, _ := recognise(j.BuildHead)
	n = len(build.Chain)
	if build.cut(childSteps) != n {
		return nil
	}
	for i := 1; i < n; i++ {
		if build.Chain[i-1].Body != build.Chain[i] {
			return nil
		}
	}
	loop = build.Chain[n-1]
	j.BuildVar, j.BuildSlot, j.BuildPath = loop.Var, loop.Slot, build.path(n)

	// The innermost build body must be exactly
	// "if (key = key) then Then else ()".
	cond, ok := build.Body.(*xqast.IfExpr)
	if !ok {
		return nil
	}
	if _, ok := cond.Else.(*xqast.Empty); !ok {
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
	if !j.buildSignOffs(p) {
		return nil
	}
	// The rest of the probe body may use only the probe binding (plus
	// local bindings); sign-offs are transparent.
	if !usesOnly(j.ProbeLoop.Body, map[string]bool{j.ProbeVar: true}, j.BuildHead, true) {
		return nil
	}

	// The two sides must bind provably disjoint subtrees: the paths
	// diverge at a name/name step with different names.
	if !disjoint(j.ProbePath, j.BuildPath) {
		return nil
	}
	return j
}

// buildSignOffs collects Release: among the top-level statements, the
// hoisted sign-offs of the roles below the build path, which only the
// build key and Then read — the probe side binds a disjoint subtree and
// is the query's one dynamic item. BuildVar's binding role, whose nodes
// are the tuples, goes last. It reports false when the binding role's
// sign-off is not there.
func (j *JoinInfo) buildSignOffs(p *Plan) bool {
	j.BuildRole = -1
	n := len(j.BuildPath.Steps)
	for _, s := range statements(p.Rewritten.Body) {
		so, ok := s.(*xqast.SignOff)
		if !ok || so.Base != xqast.RootVar || len(so.Path.Steps) < n ||
			!(xpath.Path{Steps: so.Path.Steps[:n]}).Equal(j.BuildPath) {
			continue
		}
		if len(so.Path.Steps) == n && p.Roles[so.Role].Kind == RoleBinding {
			j.BuildRole = so.Role
			continue
		}
		j.Release = append(j.Release, &xqast.SignOff{
			Base: j.BuildVar, Slot: j.BuildSlot, Role: so.Role,
			Path: xpath.Path{Steps: so.Path.Steps[n:]},
		})
	}
	if j.BuildRole < 0 {
		return false
	}
	j.Release = append(j.Release, &xqast.SignOff{Base: j.BuildVar, Slot: j.BuildSlot, Role: j.BuildRole})
	return true
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

// disjoint reports whether the two binding paths bind disjoint
// subtrees: their first differing step is a name/name mismatch. Prefix
// relationships (one side an ancestor of the other) are rejected.
func disjoint(probe, build xpath.Path) bool {
	for i := 0; i < min(len(probe.Steps), len(build.Steps)); i++ {
		if p, b := probe.Steps[i], build.Steps[i]; p != b {
			return p.Test.Kind == xpath.TestName && b.Test.Kind == xpath.TestName &&
				p.Test.Name != b.Test.Name
		}
	}
	return false // one path is a prefix of the other
}
