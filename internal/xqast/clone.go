package xqast

// CloneExpr returns a deep copy of an expression tree. The analysis
// keeps a pristine copy of the normalized query while the rewriter
// mutates the working tree.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Empty:
		return &Empty{}
	case *Sequence:
		items := make([]Expr, len(e.Items))
		for i, item := range e.Items {
			items[i] = CloneExpr(item)
		}
		return &Sequence{Items: items}
	case *Element:
		attrs := make([]AttrTemplate, len(e.Attrs))
		for i, a := range e.Attrs {
			attrs[i] = a
			if a.Expr != nil {
				cp := *a.Expr
				attrs[i].Expr = &cp
			}
		}
		return &Element{Name: e.Name, Attrs: attrs, Content: CloneExpr(e.Content)}
	case *StringLit:
		return &StringLit{Value: e.Value}
	case *VarRef:
		cp := *e
		return &cp
	case *PathExpr:
		cp := *e
		return &cp
	case *ForExpr:
		return &ForExpr{Var: e.Var, In: e.In, Body: CloneExpr(e.Body), Slot: e.Slot}
	case *IfExpr:
		return &IfExpr{Cond: CloneCond(e.Cond), Then: CloneExpr(e.Then), Else: CloneExpr(e.Else)}
	case *AggExpr:
		return &AggExpr{Fn: e.Fn, Arg: e.Arg}
	case *SignOff:
		cp := *e
		return &cp
	default:
		panic("xqast: unknown expression type in CloneExpr")
	}
}

// CloneCond returns a deep copy of a condition tree.
func CloneCond(c Cond) Cond {
	switch c := c.(type) {
	case nil:
		return nil
	case *ExistsCond:
		return &ExistsCond{Arg: c.Arg}
	case *NotCond:
		return &NotCond{C: CloneCond(c.C)}
	case *AndCond:
		return &AndCond{L: CloneCond(c.L), R: CloneCond(c.R)}
	case *OrCond:
		return &OrCond{L: CloneCond(c.L), R: CloneCond(c.R)}
	case *BoolLit:
		return &BoolLit{Value: c.Value}
	case *CompareCond:
		return &CompareCond{Op: c.Op, L: c.L, R: c.R}
	default:
		panic("xqast: unknown condition type in CloneCond")
	}
}
