package analysis

import (
	"fmt"

	"gcx/internal/xpath"
	"gcx/internal/xqast"
	"gcx/internal/xqvalue"
)

// placement records where a sign-off statement goes.
type placement struct {
	// scope is the for-loop whose body receives the statement, or nil
	// for the top-level scope.
	scope *xqast.ForExpr
	// afterStmt is the direct statement of the scope after which the
	// sign-off is inserted; nil appends at the end of the scope (the
	// iteration-end preemption point).
	afterStmt xqast.Expr
	signOff   *xqast.SignOff
	// hoisted marks a sign-off placed in a scope outside the one of the
	// loop binding its anchor.
	hoisted bool
}

// extractor walks the normalized query, derives roles and computes
// sign-off placements.
type extractor struct {
	roles           []Role
	placements      []placement
	outputs         []OutputVerdict
	usesAggregation bool
	opts            Options

	// scope stack: frame 0 is the top level (loop == nil).
	stack []scopeFrame

	varPath map[string]xpath.Path // variable → absolute binding path
	baseOf  map[string]string     // variable → binding base variable
	binder  map[string]int        // variable → stack index of its loop

	// ifs records, per if-expression, its innermost loop and the roles
	// its branches created, for xqast.IfExpr.Untaken.
	ifs map[*xqast.IfExpr]ifRoles
}

// ifRoles are the roles an if-expression's branches created: ids
// [then, els) in Then, [els, end) in Else. Roles are per use, so no
// other expression reads them. scope is the if's innermost loop.
type ifRoles struct {
	scope          *xqast.ForExpr
	then, els, end int
}

type scopeFrame struct {
	loop *xqast.ForExpr // nil for top level
	stmt xqast.Expr     // current direct statement being walked
	// guards counts the if-branches currently open while walking this
	// scope's body.
	guards int
	// guarded is set (cumulatively) when the scope's loop sits inside a
	// conditional branch: its body — and any sign-off placed there —
	// might never execute even though projection assigns its roles
	// unconditionally. Placements hoist out of guarded scopes.
	guarded bool
}

func newExtractor() *extractor {
	return &extractor{
		varPath: map[string]xpath.Path{xqast.RootVar: {}},
		baseOf:  map[string]string{},
		binder:  map[string]int{xqast.RootVar: 0},
		ifs:     map[*xqast.IfExpr]ifRoles{},
	}
}

func (ex *extractor) run(q *xqast.Query) error {
	ex.stack = []scopeFrame{{loop: nil}}
	// r1: the document root (paper: "r1: /"). Signed off at the very end
	// of the query (afterStmt nil at top level = end of top scope).
	ex.addRole(Role{Kind: RoleRoot, Path: xpath.Path{}, Provenance: "document root"},
		xqast.RootVar, xpath.Path{})
	return ex.walkScopeBody(q.Body)
}

// walkScopeBody walks the body of the current scope, maintaining the
// frame's current-statement pointer.
func (ex *extractor) walkScopeBody(body xqast.Expr) error {
	for _, stmt := range statements(body) {
		ex.stack[len(ex.stack)-1].stmt = stmt
		if err := ex.walk(stmt); err != nil {
			return err
		}
	}
	return nil
}

// statements flattens a scope body into its direct statement list.
func statements(body xqast.Expr) []xqast.Expr {
	switch b := body.(type) {
	case *xqast.Sequence:
		return b.Items
	case *xqast.Empty:
		return nil
	default:
		return []xqast.Expr{body}
	}
}

func (ex *extractor) walk(e xqast.Expr) error {
	switch e := e.(type) {
	case *xqast.Empty, *xqast.StringLit:
		return nil
	case *xqast.Sequence:
		for _, item := range e.Items {
			if err := ex.walk(item); err != nil {
				return err
			}
		}
		return nil
	case *xqast.Element:
		// Attribute value templates are string-valued uses, like
		// comparison operands.
		for _, a := range e.Attrs {
			if a.Expr != nil {
				ex.valueRole(*a.Expr, RoleOutput,
					fmt.Sprintf("attribute %s of <%s>", a.Name, e.Name))
				ex.outputs = append(ex.outputs, OutputVerdict{
					Expr:   fmt.Sprintf("%s=\"{%s}\"", a.Name, refString(*a.Expr)),
					Reason: "attribute template",
				})
			}
		}
		return ex.walk(e.Content)
	case *xqast.VarRef:
		// Output of a full subtree: role path($x)/descendant-or-self::node().
		ex.addRole(Role{
			Kind:       RoleOutput,
			Path:       ex.varPath[e.Var].Append(xpath.DescendantOrSelfNodeStep()),
			Provenance: fmt.Sprintf("output $%s", e.Var),
		}, e.Var, xpath.Path{Steps: []xpath.Step{xpath.DescendantOrSelfNodeStep()}})
		ex.streamVerdict(e, "$"+e.Var, e.Var, xpath.Path{}, &e.Forward)
		return nil
	case *xqast.PathExpr:
		ex.usePathRole(*e, RoleOutput, fmt.Sprintf("output %s", refString(*e)))
		ex.streamVerdict(e, refString(*e), e.Base, e.Path, &e.Forward)
		return nil
	case *xqast.AggExpr:
		ex.usesAggregation = true
		prov := fmt.Sprintf("%s(%s)", e.Fn, refString(e.Arg))
		ex.outputs = append(ex.outputs, OutputVerdict{Expr: prov, Reason: "aggregate"})
		if e.Fn == xqvalue.Count {
			// count() needs the matched nodes only, not their values.
			ex.usePathRole(e.Arg, RoleAgg, prov)
		} else {
			// sum/min/max/avg need string values, like operands.
			ex.valueRole(e.Arg, RoleAgg, prov)
		}
		return nil
	case *xqast.IfExpr:
		if err := ex.walkCond(e.Cond); err != nil {
			return err
		}
		// Index (not pointer) access: walking the branches pushes loop
		// frames and may reallocate the stack's backing array.
		ex.stack[len(ex.stack)-1].guards++
		r := ifRoles{scope: ex.stack[len(ex.stack)-1].loop, then: len(ex.roles)}
		err := ex.walk(e.Then)
		r.els = len(ex.roles)
		if err == nil {
			err = ex.walk(e.Else)
		}
		r.end = len(ex.roles)
		ex.ifs[e] = r
		ex.stack[len(ex.stack)-1].guards--
		return err
	case *xqast.ForExpr:
		return ex.walkFor(e)
	case *xqast.SignOff:
		return fmt.Errorf("analysis: unexpected signOff in input")
	default:
		return fmt.Errorf("analysis: unknown expression %T", e)
	}
}

func (ex *extractor) walkFor(f *xqast.ForExpr) error {
	if len(f.In.Path.Steps) != 1 {
		return fmt.Errorf("analysis: loop over $%s not single-step after normalization", f.Var)
	}
	bindPath := ex.varPath[f.In.Base].Append(f.In.Path.Steps[0])
	ex.varPath[f.Var] = bindPath
	ex.baseOf[f.Var] = f.In.Base

	// Push the loop's frame first so that the binding role — anchored at
	// the loop variable itself — is placed inside the loop body
	// ("signOff($x, r3)" at the iteration end).
	parent := ex.stack[len(ex.stack)-1]
	ex.stack = append(ex.stack, scopeFrame{
		loop:    f,
		guarded: parent.guarded || parent.guards > 0,
	})
	ex.binder[f.Var] = len(ex.stack) - 1

	ex.addRole(Role{
		Kind:       RoleBinding,
		Path:       bindPath,
		Provenance: fmt.Sprintf("for $%s in %s", f.Var, refString(f.In)),
	}, f.Var, xpath.Path{})

	if err := ex.walkScopeBody(f.Body); err != nil {
		return err
	}
	ex.stack = ex.stack[:len(ex.stack)-1]
	delete(ex.binder, f.Var)
	return nil
}

func (ex *extractor) walkCond(c xqast.Cond) error {
	switch c := c.(type) {
	case *xqast.ExistsCond:
		if c.Arg.Path.IsEmpty() {
			return nil // exists($x) is trivially true; no data needed
		}
		if ex.opts.CoarseGranularity {
			ex.coarseRole(c.Arg, RoleExists, fmt.Sprintf("exists %s", refString(c.Arg)))
			return nil
		}
		if c.Arg.Path.EndsWithAttribute() {
			// The element carrying the attribute must be buffered; every
			// candidate is needed (the first might lack the attribute).
			elem := c.Arg.Path.WithoutLastStep()
			if elem.IsEmpty() {
				return nil // attribute of the binding itself
			}
			ex.addRole(Role{
				Kind:       RoleExists,
				Path:       ex.varPath[c.Arg.Base].Append(elem.Steps...),
				Provenance: fmt.Sprintf("exists %s", refString(c.Arg)),
			}, c.Arg.Base, elem)
			return nil
		}
		// First witness suffices: predicate [1] on the last step (r4).
		// The ablation switch keeps the unpruned path instead.
		rel := c.Arg.Path
		steps := append([]xpath.Step(nil), rel.Steps...)
		if !ex.opts.DisableFirstWitness {
			steps[len(steps)-1].FirstOnly = true
		}
		rel = xpath.Path{Steps: steps}
		ex.addRole(Role{
			Kind:       RoleExists,
			Path:       ex.varPath[c.Arg.Base].Append(steps...),
			Provenance: fmt.Sprintf("exists %s", refString(c.Arg)),
		}, c.Arg.Base, rel)
		return nil
	case *xqast.NotCond:
		return ex.walkCond(c.C)
	case *xqast.AndCond:
		if err := ex.walkCond(c.L); err != nil {
			return err
		}
		return ex.walkCond(c.R)
	case *xqast.OrCond:
		if err := ex.walkCond(c.L); err != nil {
			return err
		}
		return ex.walkCond(c.R)
	case *xqast.BoolLit:
		return nil
	case *xqast.CompareCond:
		for _, o := range []xqast.Operand{c.L, c.R} {
			if o.Kind == xqast.OperandPath {
				ex.valueRole(o.Path, RoleOperand, fmt.Sprintf("operand %s", refString(o.Path)))
			}
		}
		return nil
	default:
		return fmt.Errorf("analysis: unknown condition %T", c)
	}
}

// valueRole derives the projection need of a string-valued use
// (comparison operand, attribute template, non-count aggregate): the
// string value of elements requires their subtrees; attribute accesses
// require only the owning elements.
func (ex *extractor) valueRole(pe xqast.PathExpr, kind RoleKind, prov string) {
	if ex.opts.CoarseGranularity {
		ex.coarseRole(pe, kind, prov)
		return
	}
	switch {
	case pe.Path.EndsWithAttribute():
		elem := pe.Path.WithoutLastStep()
		if elem.IsEmpty() {
			return // attribute of the binding node itself: already buffered
		}
		ex.addRole(Role{
			Kind:       kind,
			Path:       ex.varPath[pe.Base].Append(elem.Steps...),
			Provenance: prov,
		}, pe.Base, elem)
	case pe.Path.EndsWithText():
		ex.addRole(Role{
			Kind:       kind,
			Path:       ex.varPath[pe.Base].Append(pe.Path.Steps...),
			Provenance: prov,
		}, pe.Base, pe.Path)
	default:
		rel := pe.Path.Append(xpath.DescendantOrSelfNodeStep())
		ex.addRole(Role{
			Kind:       kind,
			Path:       ex.varPath[pe.Base].Append(rel.Steps...),
			Provenance: prov,
		}, pe.Base, rel)
	}
}

// usePathRole derives the role of an output or count path.
func (ex *extractor) usePathRole(pe xqast.PathExpr, kind RoleKind, prov string) {
	if ex.opts.CoarseGranularity {
		ex.coarseRole(pe, kind, prov)
		return
	}
	switch {
	case pe.Path.EndsWithAttribute():
		elem := pe.Path.WithoutLastStep()
		if elem.IsEmpty() {
			return
		}
		ex.addRole(Role{Kind: kind, Path: ex.varPath[pe.Base].Append(elem.Steps...), Provenance: prov},
			pe.Base, elem)
	case pe.Path.EndsWithText():
		ex.addRole(Role{Kind: kind, Path: ex.varPath[pe.Base].Append(pe.Path.Steps...), Provenance: prov},
			pe.Base, pe.Path)
	case kind == RoleAgg:
		// count() needs the matched nodes, not their subtrees.
		ex.addRole(Role{Kind: kind, Path: ex.varPath[pe.Base].Append(pe.Path.Steps...), Provenance: prov},
			pe.Base, pe.Path)
	default:
		rel := pe.Path.Append(xpath.DescendantOrSelfNodeStep())
		ex.addRole(Role{Kind: kind, Path: ex.varPath[pe.Base].Append(rel.Steps...), Provenance: prov},
			pe.Base, rel)
	}
}

// addRole registers a role anchored at variable anchor with the given
// path relative to the anchor, and computes its sign-off placement.
func (ex *extractor) addRole(r Role, anchor string, rel xpath.Path) {
	r.ID = len(ex.roles)
	ex.roles = append(ex.roles, r)

	chain := ex.anchorChain(anchor)

	// Natural placement: the scope of the anchor's binder (for binding
	// roles the anchor is the loop variable itself, so this is the loop
	// just pushed). The root anchor naturally places at top level.
	natural := ex.binder[anchor]

	// Hoist outward past the first enclosing loop that does not bind a
	// chain variable: iterations of such a loop would re-execute the
	// sign-off over the same nodes (the join case).
	place := natural
	for j := 1; j <= natural; j++ { // frame 0 is top level
		if !chain[ex.stack[j].loop.Var] {
			place = j - 1
			break
		}
	}
	// Hoist further out of conditionally-guarded scopes: projection
	// assigns roles unconditionally, so their removal must execute
	// unconditionally too. (Hoisting shrinks the enclosing-loop prefix,
	// so the chain condition above keeps holding.)
	for place > 0 && ex.stack[place].guarded {
		place--
	}

	// The sign-off path is expressed relative to the deepest chain
	// variable still bound at the placement scope.
	signVar := anchor
	for ex.binder[signVar] > place {
		signVar = ex.baseOf[signVar]
	}
	signPath := xpath.Path{Steps: append([]xpath.Step(nil), r.Path.Steps[len(ex.varPath[signVar].Steps):]...)}

	pl := placement{
		scope:   ex.stack[place].loop,
		signOff: &xqast.SignOff{Base: signVar, Path: signPath, Role: r.ID, Prune: prunable(ex.varPath[signVar])},
		hoisted: place != natural,
	}
	if pl.hoisted || pl.scope == nil {
		// Hoisted (or top-level-anchored): insert right after the
		// statement of the placement scope containing the occurrence.
		pl.afterStmt = ex.stack[place].stmt
	}
	ex.placements = append(ex.placements, pl)
}

// streamVerdict records whether the output expression e — $anchor or
// $anchor/rel, whose role is the last one added — streams, and if so
// points *forward at the role's sign-off (DESIGN.md §3, "Stream-through
// output"). Forwarding serializes the matches a binding already holds,
// runs the sign-off on them at once and writes the rest of the binding's
// matches as they arrive, so it needs three things. The path has child
// and descendant element steps only: a match is then an element, and
// one nested in another is written again after it, from the buffer
// (attribute values and text() matches are not subtrees to forward).
// The expression runs at most once per
// binding: it sits directly in the anchor's loop, not in a loop nested
// there. And the sign-off it runs early is that binding's own: placed
// at the end of the anchor's loop body (or after the top-level
// statement), not hoisted out of it.
func (ex *extractor) streamVerdict(e xqast.Expr, text, anchor string, rel xpath.Path, forward **xqast.SignOff) {
	v := OutputVerdict{Expr: text, expr: e}
	switch {
	case rel.EndsWithAttribute():
		// The attribute's element may not even have a role.
		v.Reason = "attribute-final path"
	case !elementSteps(rel):
		v.Reason = "not a path of child and descendant element steps"
	case ex.binder[anchor] != len(ex.stack)-1:
		v.Reason = "inside a loop nested in its binding's: runs more than once per binding"
	case ex.placements[len(ex.placements)-1].hoisted:
		v.Reason = "its sign-off is hoisted out of its binding's loop"
	default:
		*forward = ex.placements[len(ex.placements)-1].signOff
	}
	ex.outputs = append(ex.outputs, v)
}

// elementSteps reports whether every step of rel is a child or
// descendant step with an element test and no first-witness predicate.
func elementSteps(rel xpath.Path) bool {
	for _, s := range rel.Steps {
		if (s.Axis != xpath.Child && s.Axis != xpath.Descendant) || s.FirstOnly ||
			(s.Test.Kind != xpath.TestName && s.Test.Kind != xpath.TestWildcard) {
			return false
		}
	}
	return true
}

// prunable is the verdict behind xqast.SignOff.Prune for a sign-off
// whose base variable is bound at the absolute path bind: a loop
// variable (the root has the empty path) reached by child steps only.
// Its bindings then all sit at one depth and cannot nest, so every item
// of the role at or below a binding's frame was derived through that
// binding; the role's one sign-off runs once per binding and is its
// last use there, so nothing can read the role inside it again.
func prunable(bind xpath.Path) bool {
	for _, s := range bind.Steps {
		if s.Axis != xpath.Child {
			return false
		}
	}
	return !bind.IsEmpty()
}

// anchorChain returns the set of variables on the anchor's dependency
// chain: the anchor, its binding base, and so on up to the root.
func (ex *extractor) anchorChain(anchor string) map[string]bool {
	chain := map[string]bool{}
	for v := anchor; v != xqast.RootVar; v = ex.baseOf[v] {
		chain[v] = true
	}
	chain[xqast.RootVar] = true
	return chain
}

// coarseRole derives the subtree-granular form of a use role: the
// element-path prefix (attribute and text() refinements dropped, no
// first-witness pruning) extended by descendant-or-self::node(). Every
// fine-granularity role's nodes are a subset of the coarse role's, so
// evaluation semantics are unchanged — only the buffer grows.
func (ex *extractor) coarseRole(pe xqast.PathExpr, kind RoleKind, prov string) {
	var steps []xpath.Step
	for _, s := range pe.Path.Steps {
		if s.Axis == xpath.Attribute || s.Test.Kind == xpath.TestText {
			break // both are final refinements of the element prefix
		}
		s.FirstOnly = false
		steps = append(steps, s)
	}
	rel := xpath.Path{Steps: steps}.Append(xpath.DescendantOrSelfNodeStep())
	ex.addRole(Role{
		Kind:       kind,
		Path:       ex.varPath[pe.Base].Append(rel.Steps...),
		Provenance: prov + " (coarse)",
	}, pe.Base, rel)
}

func refString(pe xqast.PathExpr) string {
	if pe.Base == xqast.RootVar {
		return pe.Path.String()
	}
	if pe.Path.IsEmpty() {
		return "$" + pe.Base
	}
	return "$" + pe.Base + "/" + pe.Path.RelString()
}
