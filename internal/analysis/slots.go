package analysis

import (
	"fmt"

	"gcx/internal/xqast"
)

// assignSlots resolves every variable of the rewritten query to an
// index into the evaluator's flat environment: xqast.RootVar is slot 0
// and each for-loop, in evaluation order, gets the next one. A use of a
// variable takes the slot of the innermost enclosing loop binding that
// name, and the root's when no loop does. It returns the number of
// slots.
//
// Loops do not recurse, so one slot per loop is enough: a loop's slot
// is written once per binding and read only inside its body. The tree
// is updated in place; it is the plan's private copy.
func assignSlots(q *xqast.Query) (int, error) {
	s := slotter{scope: map[string]int{xqast.RootVar: 0}, next: 1}
	s.expr(q.Body)
	return s.next, s.err
}

type slotter struct {
	scope map[string]int
	next  int
	err   error
}

func (s *slotter) lookup(name string) int {
	slot, ok := s.scope[name]
	if !ok && s.err == nil {
		s.err = fmt.Errorf("analysis: variable $%s is not bound where the rewritten query uses it", name)
	}
	return slot
}

func (s *slotter) path(pe *xqast.PathExpr) { pe.Slot = s.lookup(pe.Base) }

func (s *slotter) expr(e xqast.Expr) {
	switch e := e.(type) {
	case *xqast.Sequence:
		for _, item := range e.Items {
			s.expr(item)
		}
	case *xqast.Element:
		for _, a := range e.Attrs {
			if a.Expr != nil {
				s.path(a.Expr)
			}
		}
		s.expr(e.Content)
	case *xqast.VarRef:
		e.Slot = s.lookup(e.Var)
	case *xqast.PathExpr:
		s.path(e)
	case *xqast.AggExpr:
		s.path(&e.Arg)
	case *xqast.SignOff:
		e.Slot = s.lookup(e.Base)
	case *xqast.ForExpr:
		s.path(&e.In)
		e.Slot = s.next
		s.next++
		outer, shadowed := s.scope[e.Var]
		s.scope[e.Var] = e.Slot
		s.expr(e.Body)
		if shadowed {
			s.scope[e.Var] = outer
		} else {
			delete(s.scope, e.Var)
		}
	case *xqast.IfExpr:
		xqast.WalkConds(e.Cond, func(c xqast.Cond) {
			switch c := c.(type) {
			case *xqast.ExistsCond:
				s.path(&c.Arg)
			case *xqast.CompareCond:
				if c.L.Kind == xqast.OperandPath {
					s.path(&c.L.Path)
				}
				if c.R.Kind == xqast.OperandPath {
					s.path(&c.R.Path)
				}
			}
		})
		s.expr(e.Then)
		s.expr(e.Else)
	}
}
