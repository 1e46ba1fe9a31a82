package xqast

import (
	"fmt"
	"strings"

	"gcx/internal/xpath"
)

// Print renders a query as text in the style of the paper's listings
// (for-loops one per line, signOff statements spelled out). The output
// parses back to an equivalent query when it contains no SignOff nodes;
// rewritten queries are printed for explanation only.
func Print(q *Query) string {
	var p printer
	p.expr(q.Body, 0)
	return strings.TrimRight(p.b.String(), "\n") + "\n"
}

// PrintExpr renders a single expression (used in error messages and the
// role browser of cmd/gcx -explain).
func PrintExpr(e Expr) string {
	var p printer
	p.expr(e, 0)
	return strings.TrimRight(p.b.String(), "\n")
}

type printer struct {
	b strings.Builder
}

func (p *printer) indent(level int) {
	for i := 0; i < level; i++ {
		p.b.WriteString("  ")
	}
}

func (p *printer) line(level int, format string, args ...any) {
	p.indent(level)
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteString("\n")
}

func pathRef(base string, path xpath.Path) string {
	if base == RootVar {
		return path.String()
	}
	if path.IsEmpty() {
		return "$" + base
	}
	return "$" + base + "/" + path.RelString()
}

func (p *printer) expr(e Expr, level int) {
	switch e := e.(type) {
	case *Empty:
		p.line(level, "()")
	case *Sequence:
		p.line(level, "(")
		for i, item := range e.Items {
			p.expr(item, level+1)
			if i < len(e.Items)-1 {
				// attach comma to previous line
				s := p.b.String()
				p.b.Reset()
				p.b.WriteString(strings.TrimRight(s, "\n"))
				p.b.WriteString(",\n")
			}
		}
		p.line(level, ")")
	case *Element:
		var attrs strings.Builder
		for _, a := range e.Attrs {
			if a.Expr != nil {
				fmt.Fprintf(&attrs, ` %s="{%s}"`, a.Name, pathRef(a.Expr.Base, a.Expr.Path))
			} else {
				fmt.Fprintf(&attrs, " %s=%q", a.Name, a.Lit)
			}
		}
		if _, ok := e.Content.(*Empty); ok {
			p.line(level, "<%s%s/>", e.Name, attrs.String())
			return
		}
		p.line(level, "<%s%s> {", e.Name, attrs.String())
		p.expr(e.Content, level+1)
		p.line(level, "} </%s>", e.Name)
	case *StringLit:
		p.line(level, "%q", e.Value)
	case *VarRef:
		p.line(level, "$%s", e.Var)
	case *PathExpr:
		p.line(level, "%s", pathRef(e.Base, e.Path))
	case *ForExpr:
		p.line(level, "for $%s in %s return", e.Var, pathRef(e.In.Base, e.In.Path))
		p.expr(e.Body, level+1)
	case *IfExpr:
		p.line(level, "if (%s) then", condString(e.Cond))
		p.expr(e.Then, level+1)
		p.line(level, "else")
		p.expr(e.Else, level+1)
	case *AggExpr:
		p.line(level, "%s(%s)", e.Fn, pathRef(e.Arg.Base, e.Arg.Path))
	case *SignOff:
		verdict := ""
		if e.Prune {
			verdict = ", prune"
		}
		p.line(level, "signOff(%s, r%d%s)", pathRef(e.Base, e.Path), e.Role+1, verdict)
	default:
		p.line(level, "?unknown-expr?")
	}
}

// PrintCond renders a condition as the printed query writes it.
func PrintCond(c Cond) string { return condString(c) }

func condString(c Cond) string {
	switch c := c.(type) {
	case *ExistsCond:
		return fmt.Sprintf("exists %s", pathRef(c.Arg.Base, c.Arg.Path))
	case *NotCond:
		return fmt.Sprintf("not(%s)", condString(c.C))
	case *AndCond:
		return fmt.Sprintf("%s and %s", condString(c.L), condString(c.R))
	case *OrCond:
		return fmt.Sprintf("%s or %s", condString(c.L), condString(c.R))
	case *BoolLit:
		if c.Value {
			return "true()"
		}
		return "false()"
	case *CompareCond:
		return fmt.Sprintf("%s %s %s", operandString(c.L), c.Op, operandString(c.R))
	default:
		return "?cond?"
	}
}

func operandString(o Operand) string {
	switch o.Kind {
	case OperandPath:
		return pathRef(o.Path.Base, o.Path.Path)
	case OperandString:
		return fmt.Sprintf("%q", o.Str)
	case OperandNumber:
		if o.Num == float64(int64(o.Num)) {
			return fmt.Sprintf("%d", int64(o.Num))
		}
		return fmt.Sprintf("%g", o.Num)
	default:
		return "?operand?"
	}
}
