package analysis

import (
	"gcx/internal/xqast"
)

// rewrite rebuilds a scope body, inserting the sign-off statements
// computed by the extraction pass. scope is the loop owning the body
// (nil for the top level). Statement identity is positional: sign-offs
// registered "after stmt S" are emitted right after the rewritten S;
// iteration-end sign-offs are appended at the end of the body —
// reproducing the paper's rewritten running example, where
// signOff($x, r3) … signOff($x/descendant-or-self::node(), r5) close
// each iteration of the first loop and signOff($bib, r2) closes the
// outer one.
func (ex *extractor) rewrite(body xqast.Expr, scope *xqast.ForExpr) xqast.Expr {
	var out []xqast.Expr
	for _, stmt := range statements(body) {
		out = append(out, ex.rewriteExpr(stmt))
		for _, pl := range ex.placements {
			if pl.scope == scope && pl.afterStmt == stmt {
				out = append(out, pl.signOff)
			}
		}
	}
	for _, pl := range ex.placements {
		if pl.scope == scope && pl.afterStmt == nil {
			out = append(out, pl.signOff)
		}
	}
	return xqast.NewSequence(out...)
}

// rewriteExpr descends into non-scope expressions, rewriting loop bodies
// it encounters.
func (ex *extractor) rewriteExpr(e xqast.Expr) xqast.Expr {
	switch e := e.(type) {
	case *xqast.ForExpr:
		return &xqast.ForExpr{Var: e.Var, In: e.In, Body: ex.rewrite(e.Body, e)}
	case *xqast.Element:
		return &xqast.Element{Name: e.Name, Attrs: e.Attrs, Content: ex.rewriteExpr(e.Content)}
	case *xqast.Sequence:
		items := make([]xqast.Expr, len(e.Items))
		for i, item := range e.Items {
			items[i] = ex.rewriteExpr(item)
		}
		return &xqast.Sequence{Items: items}
	case *xqast.IfExpr:
		return &xqast.IfExpr{Cond: e.Cond, Then: ex.rewriteExpr(e.Then), Else: ex.rewriteExpr(e.Else), Untaken: ex.untaken(e)}
	default:
		return e
	}
}

// untaken collects xqast.IfExpr.Untaken: the prunable sign-offs that the
// if's innermost loop runs at the end of each binding's body on roles
// created in one branch. The if runs at most once per binding, so once
// its condition is decided nothing reads the other branch's roles
// inside that binding again. Sign-offs hoisted to an outer loop stay
// where they are: that loop's binding outlives the decision.
func (ex *extractor) untaken(e *xqast.IfExpr) (u [2][]*xqast.SignOff) {
	r := ex.ifs[e]
	if r.scope == nil {
		return u
	}
	for _, pl := range ex.placements {
		role := pl.signOff.Role
		switch {
		case pl.scope != r.scope || !pl.signOff.Prune:
		case role >= r.then && role < r.els:
			u[0] = append(u[0], pl.signOff)
		case role >= r.els && role < r.end:
			u[1] = append(u[1], pl.signOff)
		}
	}
	return u
}
