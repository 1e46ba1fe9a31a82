// Package xqast defines the abstract syntax tree of the XQuery fragment
// supported by GCX: composition-free XQuery with (after normalization)
// single-step nested for-loops, conditions and joins — plus the signOff
// statements that the static analysis inserts at preemption points
// (paper §2), and a count() aggregation extension flagged as such.
package xqast

import (
	"gcx/internal/xpath"
	"gcx/internal/xqvalue"
)

// RootVar is the name of the implicit variable bound to the virtual
// document root. Absolute paths such as /bib are represented as
// PathExpr{Base: RootVar, Path: /bib}. The parser rejects user variables
// with this name, so it can never be captured.
const RootVar = "%root"

// Expr is a node of the query body.
type Expr interface{ isExpr() }

// Empty is the empty sequence ().
type Empty struct{}

// Sequence is the comma operator (e1, e2, ..., en) with n >= 2.
type Sequence struct {
	Items []Expr
}

// AttrTemplate is one attribute of a direct constructor: either a
// literal string value, or an attribute value template with a single
// enclosed path expression (`id="{$x/@id}"`), whose value is the
// space-joined string values of the selected nodes.
type AttrTemplate struct {
	Name string
	// Lit is the literal value; used when Expr is nil.
	Lit string
	// Expr, when non-nil, computes the value at construction time.
	Expr *PathExpr
}

// Element is a direct element constructor <Name Attrs>{Content}</Name>.
type Element struct {
	Name    string
	Attrs   []AttrTemplate
	Content Expr
}

// StringLit is literal text output (string literal in the query).
type StringLit struct {
	Value string
}

// VarRef outputs the full subtree of the node bound to Var ("then $x" in
// the paper's running example — the source of role r5). Slot is Var's
// variable slot (see ForExpr).
type VarRef struct {
	Var  string
	Slot int
}

// PathExpr addresses nodes relative to a variable binding: $Base/Path.
// In output position it serializes each selected node's subtree in
// document order (or the attribute value, for attribute-final paths).
// Slot is Base's variable slot (see ForExpr).
type PathExpr struct {
	Base string
	Path xpath.Path
	Slot int
}

// ForExpr is a for-loop "for $Var in $In.Base/In.Path return Body".
// After normalization, In.Path always has exactly one step ("single-step
// for-loops", paper footnote 1).
//
// Slot is the index of Var in the evaluator's flat variable
// environment. The analysis numbers the loops of the rewritten plan —
// RootVar is slot 0, each loop gets the next index — and resolves every
// use of a variable (PathExpr.Slot, VarRef.Slot, SignOff.Slot) to the
// slot of the loop binding it, so the engine never looks a name up.
// Slots are zero until then.
type ForExpr struct {
	Var  string
	In   PathExpr
	Body Expr
	Slot int
}

// IfExpr is "if (Cond) then Then else Else".
type IfExpr struct {
	Cond Cond
	Then Expr
	Else Expr
}

// AggExpr is an aggregation in output position: count, sum, min, max or
// avg over a path's selected nodes. The paper notes GCX "does not yet
// cover aggregation"; this reproduction implements the family as an
// opt-in extension (see DESIGN.md §3).
type AggExpr struct {
	Fn  xqvalue.AggFunc
	Arg PathExpr
}

// SignOff is the compile-time-inserted statement
// "signOff($Base/Path, rRole)". Executing it removes one instance of
// Role from every node reached from the binding of Base via Path (per
// derivation), and triggers garbage collection. Slot is Base's variable
// slot (see ForExpr).
type SignOff struct {
	Base string
	Path xpath.Path
	Role int
	Slot int
}

func (*Empty) isExpr()     {}
func (*Sequence) isExpr()  {}
func (*Element) isExpr()   {}
func (*StringLit) isExpr() {}
func (*VarRef) isExpr()    {}
func (*PathExpr) isExpr()  {}
func (*ForExpr) isExpr()   {}
func (*IfExpr) isExpr()    {}
func (*AggExpr) isExpr()   {}
func (*SignOff) isExpr()   {}

// Cond is a condition of an if-expression.
type Cond interface{ isCond() }

// ExistsCond is "exists($x/path)" — satisfied by a first witness
// (projection predicate [1], role r4 in the paper).
type ExistsCond struct {
	Arg PathExpr
}

// NotCond negates a condition.
type NotCond struct {
	C Cond
}

// AndCond is conjunction.
type AndCond struct {
	L, R Cond
}

// OrCond is disjunction.
type OrCond struct {
	L, R Cond
}

// BoolLit is true() or false().
type BoolLit struct {
	Value bool
}

// CmpOp is a general-comparison operator.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// OperandKind discriminates comparison operands.
type OperandKind uint8

const (
	// OperandPath is a node-set operand $x/path (string values compared
	// existentially, XPath-1.0 style).
	OperandPath OperandKind = iota
	// OperandString is a string literal.
	OperandString
	// OperandNumber is a numeric literal; its presence switches the
	// comparison to numeric.
	OperandNumber
)

// Operand is one side of a comparison.
type Operand struct {
	Kind OperandKind
	Path PathExpr // OperandPath
	Str  string   // OperandString; OperandNumber: the literal as a value (NumberOperand)
	Num  float64  // OperandNumber
}

// NumberOperand returns the operand of the numeric literal n. The value
// comparisons see is rendered here, once, not at every evaluation.
func NumberOperand(n float64) Operand {
	return Operand{Kind: OperandNumber, Num: n, Str: xqvalue.FormatNumber(n)}
}

// CompareCond is a general comparison "L op R".
type CompareCond struct {
	Op   CmpOp
	L, R Operand
}

func (*ExistsCond) isCond()  {}
func (*NotCond) isCond()     {}
func (*AndCond) isCond()     {}
func (*OrCond) isCond()      {}
func (*BoolLit) isCond()     {}
func (*CompareCond) isCond() {}

// Query is a complete query.
type Query struct {
	Body Expr
}

// seqAppend flattens nested sequences while appending, so rewrites keep
// the tree in a canonical shape.
func seqAppend(items []Expr, e Expr) []Expr {
	if s, ok := e.(*Sequence); ok {
		return append(items, s.Items...)
	}
	if _, ok := e.(*Empty); ok {
		return items
	}
	return append(items, e)
}

// NewSequence builds a canonical sequence from parts: nested sequences
// are flattened and empty expressions dropped. It returns Empty for zero
// parts and the single part itself for one.
func NewSequence(parts ...Expr) Expr {
	var items []Expr
	for _, p := range parts {
		items = seqAppend(items, p)
	}
	switch len(items) {
	case 0:
		return &Empty{}
	case 1:
		return items[0]
	default:
		return &Sequence{Items: items}
	}
}
