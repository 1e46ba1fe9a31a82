package analysis

import (
	"slices"

	"gcx/internal/event"
	"gcx/internal/xpath"
	"gcx/internal/xqast"
)

// recordFilter compiles the condition of a record loop into the
// Source-side filter (Plan.Filter, DESIGN.md §3 "Decision timing") and
// marks the verdicts of its atoms, or returns nil when the plan does not
// qualify. A plan qualifies when its body is, around a constant wrapper,
// a loop over /root/record (event.RootName, event.RecordName) whose body
// is, sign-offs aside, `if (C) then T else ()` that reads nothing but the
// record, and C is built with not, and and or from atoms decided at a
// run's end on one child name step of the record: `exists $r/k`, and
// `$r/k = "lit"` or `$r/k != "lit"` either way round. A record that C
// rejects then writes nothing and leaves nothing in the buffer that
// another record reads, so a Source may drop it whole.
func recordFilter(p *Plan, verdicts []DecisionVerdict) *event.RecordFilter {
	s, _ := recognise(p.Rewritten.Body)
	if len(s.Chain) != 2 || !childName(s.Chain[0].In.Path, event.RootName) ||
		!childName(s.Chain[1].In.Path, event.RecordName) {
		return nil
	}
	r := s.Chain[1].Var
	var ifx *xqast.IfExpr
	for _, st := range statements(s.Body) {
		if _, ok := st.(*xqast.SignOff); ok {
			continue
		}
		if ifx != nil {
			return nil
		}
		var ok bool
		if ifx, ok = st.(*xqast.IfExpr); !ok {
			return nil
		}
	}
	if ifx == nil || len(statements(ifx.Else)) != 0 {
		return nil
	}
	for v := range xqast.UsedVars(s.Body) {
		if v != r {
			return nil
		}
	}
	f := &event.RecordFilter{}
	var atoms []xqast.Cond
	var compile func(c xqast.Cond) *event.FilterCond
	compile = func(c xqast.Cond) *event.FilterCond {
		var args []xqast.Cond
		fc := &event.FilterCond{}
		switch c := c.(type) {
		case *xqast.NotCond:
			fc.Op, args = event.FilterNot, []xqast.Cond{c.C}
		case *xqast.AndCond:
			fc.Op, args = event.FilterAnd, []xqast.Cond{c.L, c.R}
		case *xqast.OrCond:
			fc.Op, args = event.FilterOr, []xqast.Cond{c.L, c.R}
		case *xqast.ExistsCond:
			if c.Decide != xqast.DecideRunEnd || !filterKey(f, fc, &c.Arg, r) {
				return nil
			}
			fc.Op = event.FilterExists
		case *xqast.CompareCond:
			path, lit := c.L, c.R
			if path.Kind != xqast.OperandPath {
				path, lit = lit, path
			}
			if c.Decide != xqast.DecideRunEnd || lit.Kind != xqast.OperandString ||
				c.Op != xqast.CmpEq && c.Op != xqast.CmpNe || !filterKey(f, fc, &path.Path, r) {
				return nil
			}
			fc.Op, fc.Lit = event.FilterEq, lit.Str
			if c.Op == xqast.CmpNe {
				fc.Op = event.FilterNe
			}
		default:
			return nil
		}
		if args == nil {
			atoms = append(atoms, c)
		}
		for _, a := range args {
			arg := compile(a)
			if arg == nil {
				return nil
			}
			fc.Args = append(fc.Args, arg)
		}
		return fc
	}
	if f.Cond = compile(ifx.Cond); f.Cond == nil || len(f.Keys) > event.MaxFilterKeys {
		return nil
	}
	// Every role below the record is the loop body's: C's, whose members
	// are Keys, and T's, whose first steps name the live members.
	for _, role := range p.Roles {
		steps := role.Path.Steps
		for i, name := range []string{event.RootName, event.RecordName} {
			if i < len(steps) && !childName(xpath.Path{Steps: steps[i : i+1]}, name) {
				return nil
			}
		}
		switch {
		case len(steps) < 3:
		case steps[2].Axis != xpath.Child || steps[2].Test.Kind != xpath.TestName:
			f.LiveAll = true
		case !slices.Contains(f.Keys, steps[2].Test.Name) && !slices.Contains(f.Live, steps[2].Test.Name):
			f.Live = append(f.Live, steps[2].Test.Name)
		}
	}
	for i := range verdicts {
		verdicts[i].Bytes = slices.Contains(atoms, verdicts[i].cond)
	}
	return f
}

// filterKey sets fc.Key to the index in f.Keys of the member pe reads,
// adding it, when pe is one child name step from the variable r.
func filterKey(f *event.RecordFilter, fc *event.FilterCond, pe *xqast.PathExpr, r string) bool {
	if pe.Base != r || len(pe.Path.Steps) != 1 || !childName(pe.Path, pe.Path.Steps[0].Test.Name) {
		return false
	}
	name := pe.Path.Steps[0].Test.Name
	if fc.Key = slices.Index(f.Keys, name); fc.Key < 0 {
		fc.Key, f.Keys = len(f.Keys), append(f.Keys, name)
	}
	return true
}

// childName reports whether path is the one child step with the name
// test name.
func childName(path xpath.Path, name string) bool {
	if len(path.Steps) != 1 {
		return false
	}
	s := path.Steps[0]
	return s.Axis == xpath.Child && s.Test.Kind == xpath.TestName && s.Test.Name == name && !s.FirstOnly
}
