package analysis

import (
	"gcx/internal/xpath"
	"gcx/internal/xqast"
)

// DecisionVerdict is one condition atom's decision timing (DESIGN.md
// §3, "Decision timing"): the first event at which the engine may
// decide it.
type DecisionVerdict struct {
	// Atom is the exists or comparison as the rewritten query prints it.
	Atom string
	// Decide is the timing, also set on the atom itself.
	Decide xqast.Decision
	// Reason says why the atom waits for its bindings' close; empty
	// otherwise.
	Reason string
	// Bytes is set when the atom is part of the plan's record filter
	// (Plan.Filter): a JSON source decides it from the record's bytes,
	// and the engine at the run's end when the source declines.
	Bytes bool
	// cond is the atom, for recordFilter.
	cond xqast.Cond
}

// String renders the verdict: "start tag", "first witness", "run end
// (JSON) or first witness", "record bytes (JSON), else run end or first
// witness" or "close: <reason>".
func (v DecisionVerdict) String() string {
	if v.Bytes {
		return "record bytes (JSON), else run end or first witness"
	}
	switch v.Decide {
	case xqast.DecideStartTag:
		return "start tag"
	case xqast.DecideWitness:
		return "first witness"
	case xqast.DecideRunEnd:
		return "run end (JSON) or first witness"
	}
	return "close: " + v.Reason
}

// maxRunNames is how many distinct first-step names run-end decisions
// may watch: the preprojector keeps one bit per name on every frame.
const maxRunNames = 64

// decisions sets the decision timing of every condition atom of the
// rewritten plan and returns the verdicts in query order, with the
// names whose runs the run-end atoms read (Plan.RunNames).
//
// An atom is decided before its bindings close only where the decision
// can prune: its operands' bindings have prunable sign-offs
// (Plan.PruneSlots). Anywhere else an early decision would only queue
// the binding's sign-offs. An exists is the exception: its first
// witness has always decided it, as the [1] latch that buffers the
// witness is set there.
func decisions(p *Plan) ([]DecisionVerdict, []string) {
	var verdicts []DecisionVerdict
	var names []string
	xqast.Walk(p.Rewritten.Body, func(e xqast.Expr) bool {
		ifx, ok := e.(*xqast.IfExpr)
		if !ok {
			return true
		}
		xqast.WalkConds(ifx.Cond, func(c xqast.Cond) {
			v := DecisionVerdict{Atom: xqast.PrintCond(c), cond: c}
			var paths []*xqast.PathExpr
			var decide *xqast.Decision
			switch c := c.(type) {
			case *xqast.ExistsCond:
				paths, decide = []*xqast.PathExpr{&c.Arg}, &c.Decide
				v.Decide, v.Reason = p.decideExists(&c.Arg)
			case *xqast.CompareCond:
				for _, o := range []*xqast.Operand{&c.L, &c.R} {
					if o.Kind == xqast.OperandPath {
						paths = append(paths, &o.Path)
					}
				}
				decide = &c.Decide
				v.Decide, v.Reason = p.decideCompare(paths)
			default:
				return
			}
			if v.Decide == xqast.DecideRunEnd {
				var ok bool
				if names, ok = addRunNames(names, paths); !ok {
					v.Decide = xqast.DecideWitness
				}
			}
			*decide = v.Decide
			verdicts = append(verdicts, v)
		})
		return true
	})
	return verdicts, names
}

// decideExists is the timing of exists(pe).
func (p *Plan) decideExists(pe *xqast.PathExpr) (xqast.Decision, string) {
	switch {
	case pe.Path.IsEmpty() || bindingAttr(pe.Path) && p.PruneSlots[pe.Slot]:
		return xqast.DecideStartTag, ""
	case p.PruneSlots[pe.Slot] && runStep(pe.Path):
		return xqast.DecideRunEnd, ""
	}
	return xqast.DecideWitness, ""
}

// decideCompare is the timing of a comparison over the path operands
// paths (none when both sides are literals).
func (p *Plan) decideCompare(paths []*xqast.PathExpr) (xqast.Decision, string) {
	d := xqast.DecideStartTag
	for _, pe := range paths {
		switch {
		case !p.PruneSlots[pe.Slot]:
			return xqast.DecideClose, "its binding's sign-offs do not prune"
		case bindingAttr(pe.Path):
		case !fixedDepth(pe.Path):
			return xqast.DecideClose, "a compared path with a descendant step is final only at the close"
		case runStep(pe.Path) && d != xqast.DecideWitness:
			d = xqast.DecideRunEnd
		default:
			d = xqast.DecideWitness
		}
	}
	return d, ""
}

// bindingAttr reports whether path names an attribute of the binding
// itself, which arrives with the binding's start tag.
func bindingAttr(path xpath.Path) bool {
	return len(path.Steps) == 1 && path.EndsWithAttribute()
}

// runStep reports whether path's first step selects children by name:
// on a source that states runs, their run ends at the next sibling of
// another name, and everything the path reaches is complete then.
func runStep(path xpath.Path) bool {
	if path.IsEmpty() {
		return false
	}
	s := path.Steps[0]
	return s.Axis == xpath.Child && s.Test.Kind == xpath.TestName
}

// fixedDepth reports whether every step of path is a child or attribute
// step: its matches then sit at one depth, and checking them for a
// closed witness costs no walk of the binding's subtree.
func fixedDepth(path xpath.Path) bool {
	for _, s := range path.Steps {
		if s.Axis != xpath.Child && s.Axis != xpath.Attribute {
			return false
		}
	}
	return true
}

// addRunNames adds the first-step names of the run-end operands among
// paths to names; ok is false, adding nothing, when that would watch
// more than maxRunNames names.
func addRunNames(names []string, paths []*xqast.PathExpr) ([]string, bool) {
	n := len(names)
	for _, pe := range paths {
		if bindingAttr(pe.Path) {
			continue
		}
		name := pe.Path.Steps[0].Test.Name
		if !containsName(names, name) {
			names = append(names, name)
		}
	}
	if len(names) > maxRunNames {
		return names[:n], false
	}
	return names, true
}

func containsName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
