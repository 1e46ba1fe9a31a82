package dom

import (
	"context"
	"fmt"

	"gcx/internal/analysis"
	"gcx/internal/event"
	"gcx/internal/stats"
	"gcx/internal/xpath"
	"gcx/internal/xqast"
	"gcx/internal/xqvalue"
)

// Run evaluates the plan's normalized query over the document read from
// src, fully buffered, under a cancellation context: parsing aborts at
// token-pull boundaries, evaluation between loop iterations. maxNodes
// is ParseSource's node budget. The caller owns src and out and
// releases them after the call.
func Run(ctx context.Context, plan *analysis.Plan, src event.Source, out event.Sink, maxNodes int64) (*stats.Run, error) {
	doc, err := ParseSource(ctx, src, maxNodes)
	if err != nil {
		return nil, err
	}
	ev := &domEval{out: out, ctx: ctx}
	env := map[string]*Node{xqast.RootVar: doc.Root}
	if err := ev.eval(plan.Normalized.Body, env); err != nil {
		return nil, err
	}
	if err := out.Flush(); err != nil {
		return nil, err
	}
	res := &stats.Run{
		TokensProcessed: doc.Tokens,
		// full buffering: the whole document is the watermark and stays
		PeakBufferedNodes:  doc.Nodes,
		PeakBufferedBytes:  doc.Bytes,
		FinalBufferedNodes: doc.Nodes,
		TotalAppended:      doc.Nodes,
		OutputBytes:        out.BytesWritten(),
	}
	return res, nil
}

// domEval is the recursive DOM evaluator; it mirrors the GCX engine's
// semantics without any streaming machinery.
type domEval struct {
	out event.Sink
	ctx context.Context
}

func (ev *domEval) eval(expr xqast.Expr, env map[string]*Node) error {
	switch expr := expr.(type) {
	case *xqast.Empty:
		return nil
	case *xqast.Sequence:
		for _, item := range expr.Items {
			if err := ev.eval(item, env); err != nil {
				return err
			}
		}
		return nil
	case *xqast.StringLit:
		ev.out.Text(expr.Value)
		return nil
	case *xqast.Element:
		attrs := make([]event.Attr, len(expr.Attrs))
		for i, a := range expr.Attrs {
			if a.Expr == nil {
				attrs[i] = event.Attr{Name: a.Name, Value: a.Lit}
				continue
			}
			vals, err := ev.pathValues(*a.Expr, env)
			if err != nil {
				return err
			}
			attrs[i] = event.Attr{Name: a.Name, Value: xqvalue.JoinSpace(vals)}
		}
		ev.out.StartElement(expr.Name, attrs)
		if err := ev.eval(expr.Content, env); err != nil {
			return err
		}
		ev.out.EndElement(expr.Name)
		return nil
	case *xqast.VarRef:
		Serialize(env[expr.Var], ev.out)
		return nil
	case *xqast.PathExpr:
		base := env[expr.Base]
		if expr.Path.EndsWithAttribute() {
			attr := expr.Path.LastStep().Test.Name
			for _, n := range selectElems(base, expr.Path.WithoutLastStep()) {
				if v, ok := n.Attr(attr); ok {
					ev.out.Text(v)
				}
			}
			return nil
		}
		for _, n := range Select(base, expr.Path) {
			Serialize(n, ev.out)
		}
		return nil
	case *xqast.ForExpr:
		base := env[expr.In.Base]
		for _, n := range Select(base, expr.In.Path) {
			if err := ev.ctx.Err(); err != nil {
				return err
			}
			env[expr.Var] = n
			err := ev.eval(expr.Body, env)
			delete(env, expr.Var)
			if err != nil {
				return err
			}
		}
		return nil
	case *xqast.IfExpr:
		holds, err := ev.cond(expr.Cond, env)
		if err != nil {
			return err
		}
		if holds {
			return ev.eval(expr.Then, env)
		}
		return ev.eval(expr.Else, env)
	case *xqast.AggExpr:
		vals, err := ev.pathValues(expr.Arg, env)
		if err != nil {
			return err
		}
		if s, ok := xqvalue.Aggregate(expr.Fn, vals); ok {
			ev.out.Text(s)
		}
		return nil
	case *xqast.SignOff:
		return fmt.Errorf("dom: sign-offs have no meaning in the DOM engine")
	default:
		return fmt.Errorf("dom: unknown expression %T", expr)
	}
}

func selectElems(base *Node, path xpath.Path) []*Node {
	if path.IsEmpty() {
		return []*Node{base}
	}
	return Select(base, path)
}

func (ev *domEval) cond(c xqast.Cond, env map[string]*Node) (bool, error) {
	switch c := c.(type) {
	case *xqast.BoolLit:
		return c.Value, nil
	case *xqast.NotCond:
		v, err := ev.cond(c.C, env)
		return !v, err
	case *xqast.AndCond:
		l, err := ev.cond(c.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.cond(c.R, env)
	case *xqast.OrCond:
		l, err := ev.cond(c.L, env)
		if err != nil || l {
			return l, err
		}
		return ev.cond(c.R, env)
	case *xqast.ExistsCond:
		base := env[c.Arg.Base]
		if c.Arg.Path.IsEmpty() {
			return true, nil
		}
		if c.Arg.Path.EndsWithAttribute() {
			attr := c.Arg.Path.LastStep().Test.Name
			for _, el := range selectElems(base, c.Arg.Path.WithoutLastStep()) {
				if _, ok := el.Attr(attr); ok {
					return true, nil
				}
			}
			return false, nil
		}
		return len(Select(base, c.Arg.Path)) > 0, nil
	case *xqast.CompareCond:
		lv, err := ev.operand(c.L, env)
		if err != nil {
			return false, err
		}
		rv, err := ev.operand(c.R, env)
		if err != nil {
			return false, err
		}
		numeric := c.L.Kind == xqast.OperandNumber || c.R.Kind == xqast.OperandNumber ||
			c.Op == xqast.CmpLt || c.Op == xqast.CmpLe || c.Op == xqast.CmpGt || c.Op == xqast.CmpGe
		return xqvalue.ExistsPair(cmpOp(c.Op), lv, rv, numeric), nil
	default:
		return false, fmt.Errorf("dom: unknown condition %T", c)
	}
}

// cmpOp maps syntax-level operators to the shared value semantics.
func cmpOp(op xqast.CmpOp) xqvalue.CmpOp {
	switch op {
	case xqast.CmpEq:
		return xqvalue.Eq
	case xqast.CmpNe:
		return xqvalue.Ne
	case xqast.CmpLt:
		return xqvalue.Lt
	case xqast.CmpLe:
		return xqvalue.Le
	case xqast.CmpGt:
		return xqvalue.Gt
	default:
		return xqvalue.Ge
	}
}

// pathValues evaluates a path expression to its value sequence,
// mirroring the streaming engine exactly.
func (ev *domEval) pathValues(pe xqast.PathExpr, env map[string]*Node) ([]string, error) {
	base := env[pe.Base]
	if pe.Path.EndsWithAttribute() {
		attr := pe.Path.LastStep().Test.Name
		var vals []string
		for _, el := range selectElems(base, pe.Path.WithoutLastStep()) {
			if v, ok := el.Attr(attr); ok {
				vals = append(vals, v)
			}
		}
		return vals, nil
	}
	nodes := selectElems(base, pe.Path)
	vals := make([]string, len(nodes))
	for i, n := range nodes {
		vals[i] = n.StringValue()
	}
	return vals, nil
}

func (ev *domEval) operand(o xqast.Operand, env map[string]*Node) ([]string, error) {
	switch o.Kind {
	case xqast.OperandString:
		return []string{o.Str}, nil
	case xqast.OperandNumber:
		return []string{xqvalue.FormatNumber(o.Num)}, nil
	case xqast.OperandPath:
		return ev.pathValues(o.Path, env)
	default:
		return nil, fmt.Errorf("dom: unknown operand kind %d", o.Kind)
	}
}
