package xqparse

import (
	"strconv"
	"strings"

	"gcx/internal/xpath"
	"gcx/internal/xqast"
	"gcx/internal/xqvalue"
)

// Parse parses query text into an AST. The result is the surface syntax
// tree: for-loop bindings may still contain multi-step paths; use
// analysis.Normalize to reduce them to the single-step core.
func Parse(src string) (*xqast.Query, error) {
	p := &parser{lex: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur.Kind != tEOF {
		return nil, p.errf("unexpected %s after query end", p.cur.Kind)
	}
	return &xqast.Query{Body: body}, nil
}

type parser struct {
	lex     *lexer
	cur     token
	pending *token // one-token lookahead buffer
}

func (p *parser) errf(format string, args ...any) error {
	return p.lex.errf(p.cur.Pos, format, args...)
}

func (p *parser) advance() error {
	if p.pending != nil {
		p.cur, p.pending = *p.pending, nil
		return nil
	}
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = tok
	return nil
}

// peek returns the token after cur without consuming it. It must not be
// called where a raw-mode switch could follow cur.
func (p *parser) peek() (token, error) {
	if p.pending == nil {
		tok, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.pending = &tok
	}
	return *p.pending, nil
}

func (p *parser) expect(k tokKind) error {
	if p.cur.Kind != k {
		return p.errf("expected %s, found %s", k, p.cur.Kind)
	}
	return p.advance()
}

// isKeyword reports whether cur is the given contextual keyword.
func (p *parser) isKeyword(kw string) bool {
	return p.cur.Kind == tIdent && p.cur.Val == kw
}

// parseExpr parses a comma-separated sequence.
func (p *parser) parseExpr() (xqast.Expr, error) {
	first, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	items := []xqast.Expr{first}
	for p.cur.Kind == tComma {
		if err := p.advance(); err != nil {
			return nil, err
		}
		next, err := p.parseSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, next)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return xqast.NewSequence(items...), nil
}

func (p *parser) parseSingle() (xqast.Expr, error) {
	switch {
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("if"):
		return p.parseIf()
	case p.cur.Kind == tIdent && isAggName(p.cur.Val):
		return p.parseAgg()
	case p.cur.Kind == tLt:
		return p.parseElement()
	case p.cur.Kind == tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.Kind == tRParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &xqast.Empty{}, nil
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case p.cur.Kind == tString:
		lit := &xqast.StringLit{Value: p.cur.Val}
		return lit, p.advance()
	case p.cur.Kind == tVar || p.cur.Kind == tSlash || p.cur.Kind == tDSlash:
		pe, err := p.parsePathRef()
		if err != nil {
			return nil, err
		}
		if pe.Path.IsEmpty() && pe.Base != xqast.RootVar {
			return &xqast.VarRef{Var: pe.Base}, nil
		}
		return &pe, nil
	default:
		return nil, p.errf("expected expression, found %s", p.cur.Kind)
	}
}

func (p *parser) parseFor() (xqast.Expr, error) {
	if err := p.advance(); err != nil { // consume 'for'
		return nil, err
	}
	if p.cur.Kind != tVar {
		return nil, p.errf("expected variable after 'for'")
	}
	v := p.cur.Val
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.isKeyword("in") {
		return nil, p.errf("expected 'in' in for-loop")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	in, err := p.parsePathRef()
	if err != nil {
		return nil, err
	}
	if in.Path.IsEmpty() {
		return nil, p.errf("for-loop binding must contain at least one step")
	}
	if in.Path.EndsWithAttribute() {
		return nil, p.errf("for-loop cannot iterate attributes")
	}
	// optional where clause — sugar for a conditional body
	var where xqast.Cond
	if p.isKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		where = c
	}
	if !p.isKeyword("return") {
		return nil, p.errf("expected 'return' in for-loop")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	body, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	if where != nil {
		body = &xqast.IfExpr{Cond: where, Then: body, Else: &xqast.Empty{}}
	}
	return &xqast.ForExpr{Var: v, In: in, Body: body}, nil
}

func (p *parser) parseIf() (xqast.Expr, error) {
	if err := p.advance(); err != nil { // consume 'if'
		return nil, err
	}
	if err := p.expect(tLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRParen); err != nil {
		return nil, err
	}
	if !p.isKeyword("then") {
		return nil, p.errf("expected 'then'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	then, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	if !p.isKeyword("else") {
		return nil, p.errf("expected 'else'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	els, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	return &xqast.IfExpr{Cond: cond, Then: then, Else: els}, nil
}

func isAggName(name string) bool {
	_, ok := xqvalue.ParseAggFunc(name)
	return ok
}

func (p *parser) parseAgg() (xqast.Expr, error) {
	fn, _ := xqvalue.ParseAggFunc(p.cur.Val)
	if err := p.advance(); err != nil { // consume the function name
		return nil, err
	}
	if err := p.expect(tLParen); err != nil {
		return nil, err
	}
	arg, err := p.parsePathRef()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRParen); err != nil {
		return nil, err
	}
	return &xqast.AggExpr{Fn: fn, Arg: arg}, nil
}

// --- paths ---------------------------------------------------------------

// parsePathRef parses $var, $var/steps, /steps or //steps.
func (p *parser) parsePathRef() (xqast.PathExpr, error) {
	base := xqast.RootVar
	switch p.cur.Kind {
	case tVar:
		// User variables can never collide with the internal RootVar:
		// its name contains '%', which the lexer cannot produce.
		base = p.cur.Val
		if err := p.advance(); err != nil {
			return xqast.PathExpr{}, err
		}
	case tSlash, tDSlash:
		// absolute path
	default:
		return xqast.PathExpr{}, p.errf("expected path or variable, found %s", p.cur.Kind)
	}
	var steps []xpath.Step
	for p.cur.Kind == tSlash || p.cur.Kind == tDSlash {
		descend := p.cur.Kind == tDSlash
		if err := p.advance(); err != nil {
			return xqast.PathExpr{}, err
		}
		step, err := p.parseStep(descend)
		if err != nil {
			return xqast.PathExpr{}, err
		}
		if len(steps) > 0 && steps[len(steps)-1].Axis == xpath.Attribute {
			return xqast.PathExpr{}, p.errf("attribute step must be the final step")
		}
		steps = append(steps, step)
	}
	return xqast.PathExpr{Base: base, Path: xpath.Path{Steps: steps}}, nil
}

var axisByName = map[string]xpath.Axis{
	"child":              xpath.Child,
	"descendant":         xpath.Descendant,
	"descendant-or-self": xpath.DescendantOrSelf,
	"self":               xpath.Self,
	"attribute":          xpath.Attribute,
}

// parseStep parses one location step; descend is true when the step was
// introduced by '//' (descendant shorthand).
func (p *parser) parseStep(descend bool) (xpath.Step, error) {
	axis := xpath.Child
	if descend {
		axis = xpath.Descendant
	}
	var test xpath.Test
	switch p.cur.Kind {
	case tAt:
		if err := p.advance(); err != nil {
			return xpath.Step{}, err
		}
		if p.cur.Kind != tIdent {
			return xpath.Step{}, p.errf("expected attribute name after '@'")
		}
		if descend {
			return xpath.Step{}, p.errf("'//@attr' is not supported; attributes are element-local")
		}
		st := xpath.AttributeStep(p.cur.Val)
		return st, p.advance()
	case tStar:
		test = xpath.Test{Kind: xpath.TestWildcard}
		if err := p.advance(); err != nil {
			return xpath.Step{}, err
		}
	case tIdent:
		name := p.cur.Val
		nxt, err := p.peek()
		if err != nil {
			return xpath.Step{}, err
		}
		if nxt.Kind == tDColon {
			ax, ok := axisByName[name]
			if !ok {
				return xpath.Step{}, p.errf("unsupported axis %q", name)
			}
			if descend {
				return xpath.Step{}, p.errf("'//' cannot combine with an explicit axis")
			}
			axis = ax
			if err := p.advance(); err != nil { // axis name
				return xpath.Step{}, err
			}
			if err := p.advance(); err != nil { // '::'
				return xpath.Step{}, err
			}
			if axis == xpath.Attribute {
				if p.cur.Kind != tIdent {
					return xpath.Step{}, p.errf("expected attribute name")
				}
				st := xpath.AttributeStep(p.cur.Val)
				return st, p.advance()
			}
			t, err := p.parseNodeTest()
			if err != nil {
				return xpath.Step{}, err
			}
			test = t
		} else {
			t, err := p.parseNodeTest()
			if err != nil {
				return xpath.Step{}, err
			}
			test = t
		}
	default:
		return xpath.Step{}, p.errf("expected step, found %s", p.cur.Kind)
	}
	step := xpath.Step{Axis: axis, Test: test}
	if p.cur.Kind == tLBracket {
		if err := p.advance(); err != nil {
			return xpath.Step{}, err
		}
		if p.cur.Kind != tNumber || p.cur.Val != "1" {
			return xpath.Step{}, p.errf("only the first-witness predicate [1] is supported")
		}
		if err := p.advance(); err != nil {
			return xpath.Step{}, err
		}
		if err := p.expect(tRBracket); err != nil {
			return xpath.Step{}, err
		}
		step.FirstOnly = true
	}
	return step, nil
}

// parseNodeTest parses name, *, text() or node() with cur at the name.
func (p *parser) parseNodeTest() (xpath.Test, error) {
	if p.cur.Kind == tStar {
		return xpath.Test{Kind: xpath.TestWildcard}, p.advance()
	}
	if p.cur.Kind != tIdent {
		return xpath.Test{}, p.errf("expected node test, found %s", p.cur.Kind)
	}
	name := p.cur.Val
	if name == "text" || name == "node" {
		nxt, err := p.peek()
		if err != nil {
			return xpath.Test{}, err
		}
		if nxt.Kind == tLParen {
			if err := p.advance(); err != nil { // name
				return xpath.Test{}, err
			}
			if err := p.advance(); err != nil { // '('
				return xpath.Test{}, err
			}
			if err := p.expect(tRParen); err != nil {
				return xpath.Test{}, err
			}
			if name == "text" {
				return xpath.Test{Kind: xpath.TestText}, nil
			}
			return xpath.Test{Kind: xpath.TestNode}, nil
		}
	}
	return xpath.Test{Kind: xpath.TestName, Name: name}, p.advance()
}

// --- conditions ----------------------------------------------------------

func (p *parser) parseCond() (xqast.Cond, error) {
	l, err := p.parseAndCond()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAndCond()
		if err != nil {
			return nil, err
		}
		l = &xqast.OrCond{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAndCond() (xqast.Cond, error) {
	l, err := p.parsePrimCond()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parsePrimCond()
		if err != nil {
			return nil, err
		}
		l = &xqast.AndCond{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePrimCond() (xqast.Cond, error) {
	switch {
	case p.isKeyword("not"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tLParen); err != nil {
			return nil, err
		}
		inner, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return &xqast.NotCond{C: inner}, nil
	case p.isKeyword("exists"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		paren := p.cur.Kind == tLParen
		if paren {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		arg, err := p.parsePathRef()
		if err != nil {
			return nil, err
		}
		if paren {
			if err := p.expect(tRParen); err != nil {
				return nil, err
			}
		}
		return &xqast.ExistsCond{Arg: arg}, nil
	case p.isKeyword("true"), p.isKeyword("false"):
		val := p.cur.Val == "true"
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tLParen); err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return &xqast.BoolLit{Value: val}, nil
	case p.cur.Kind == tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return p.parseComparison()
	}
}

func (p *parser) parseComparison() (xqast.Cond, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	var op xqast.CmpOp
	switch p.cur.Kind {
	case tEq:
		op = xqast.CmpEq
	case tNe:
		op = xqast.CmpNe
	case tLt:
		op = xqast.CmpLt
	case tLe:
		op = xqast.CmpLe
	case tGt:
		op = xqast.CmpGt
	case tGe:
		op = xqast.CmpGe
	default:
		return nil, p.errf("expected comparison operator, found %s", p.cur.Kind)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	r, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &xqast.CompareCond{Op: op, L: l, R: r}, nil
}

func (p *parser) parseOperand() (xqast.Operand, error) {
	switch p.cur.Kind {
	case tString:
		o := xqast.Operand{Kind: xqast.OperandString, Str: p.cur.Val}
		return o, p.advance()
	case tNumber:
		n, err := strconv.ParseFloat(p.cur.Val, 64)
		if err != nil {
			return xqast.Operand{}, p.errf("malformed number %q", p.cur.Val)
		}
		return xqast.NumberOperand(n), p.advance()
	case tVar, tSlash, tDSlash:
		pe, err := p.parsePathRef()
		if err != nil {
			return xqast.Operand{}, err
		}
		return xqast.Operand{Kind: xqast.OperandPath, Path: pe}, nil
	default:
		return xqast.Operand{}, p.errf("expected comparison operand, found %s", p.cur.Kind)
	}
}

// --- direct element constructors ------------------------------------------

// parseElement parses a direct constructor; cur is the '<' token and the
// lexer position is immediately after it.
func (p *parser) parseElement() (xqast.Expr, error) {
	if p.pending != nil {
		// A raw-mode switch with buffered lookahead would lose input;
		// grammar-wise this cannot happen ('<' is never peeked past).
		return nil, p.errf("internal: lookahead across constructor boundary")
	}
	name, err := p.lex.rawName()
	if err != nil {
		return nil, err
	}
	el, err := p.parseNestedElement(name)
	if err != nil {
		return nil, err
	}
	return el, p.advance()
}

// parseContent parses element content until the matching close tag.
func (p *parser) parseContent(name string) (xqast.Expr, error) {
	var parts []xqast.Expr
	for {
		text, ev, err := p.lex.rawContent()
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(text) != "" {
			parts = append(parts, &xqast.StringLit{Value: text})
		}
		switch ev {
		case rawEOF:
			return nil, p.lex.errf(p.lex.pos, "missing </%s>", name)
		case rawCloseTag:
			cname, err := p.lex.rawName()
			if err != nil {
				return nil, err
			}
			if cname != name {
				return nil, p.lex.errf(p.lex.pos, "mismatched </%s>, expected </%s>", cname, name)
			}
			p.lex.rawSkipSpace()
			if b, err := p.lex.rawByte(); err != nil || b != '>' {
				return nil, p.lex.errf(p.lex.pos, "malformed </%s>", cname)
			}
			return xqast.NewSequence(parts...), nil
		case rawOpenTag:
			childName, err := p.lex.rawName()
			if err != nil {
				return nil, err
			}
			child, err := p.parseNestedElement(childName)
			if err != nil {
				return nil, err
			}
			parts = append(parts, child)
		case rawBrace:
			if err := p.advance(); err != nil {
				return nil, err
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.cur.Kind != tRBrace {
				return nil, p.errf("expected '}' closing enclosed expression, found %s", p.cur.Kind)
			}
			// Do not advance: following bytes are raw content again.
			parts = append(parts, inner)
		}
	}
}

// parseNestedElement parses a nested literal element whose name has
// already been read.
func (p *parser) parseNestedElement(name string) (xqast.Expr, error) {
	var attrs []xqast.AttrTemplate
	for {
		p.lex.rawSkipSpace()
		switch p.lex.rawPeek() {
		case '>':
			_, _ = p.lex.rawByte()
			content, err := p.parseContent(name)
			if err != nil {
				return nil, err
			}
			return &xqast.Element{Name: name, Attrs: attrs, Content: content}, nil
		case '/':
			_, _ = p.lex.rawByte()
			if b, err := p.lex.rawByte(); err != nil || b != '>' {
				return nil, p.lex.errf(p.lex.pos, "malformed self-closing <%s", name)
			}
			return &xqast.Element{Name: name, Attrs: attrs, Content: &xqast.Empty{}}, nil
		default:
			aname, err := p.lex.rawName()
			if err != nil {
				return nil, p.lex.errf(p.lex.pos, "malformed tag <%s", name)
			}
			p.lex.rawSkipSpace()
			if b, err := p.lex.rawByte(); err != nil || b != '=' {
				return nil, p.lex.errf(p.lex.pos, "attribute %s missing '='", aname)
			}
			p.lex.rawSkipSpace()
			aval, err := p.lex.rawAttrValue()
			if err != nil {
				return nil, err
			}
			attr, err := p.attrTemplate(aname, aval)
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, attr)
		}
	}
}

// attrTemplate interprets an attribute value: a literal, or an
// attribute value template holding exactly one enclosed path expression
// ("{$x/@id}"). Doubled braces escape to literal braces.
func (p *parser) attrTemplate(name, value string) (xqast.AttrTemplate, error) {
	trimmed := strings.TrimSpace(value)
	if !strings.HasPrefix(trimmed, "{") || strings.HasPrefix(trimmed, "{{") {
		lit := strings.ReplaceAll(value, "{{", "{")
		lit = strings.ReplaceAll(lit, "}}", "}")
		return xqast.AttrTemplate{Name: name, Lit: lit}, nil
	}
	if !strings.HasSuffix(trimmed, "}") {
		return xqast.AttrTemplate{}, p.lex.errf(p.lex.pos, "unterminated attribute value template in %s", name)
	}
	inner := trimmed[1 : len(trimmed)-1]
	sub := &parser{lex: &lexer{src: inner}}
	if err := sub.advance(); err != nil {
		return xqast.AttrTemplate{}, err
	}
	pe, err := sub.parsePathRef()
	if err != nil {
		return xqast.AttrTemplate{}, err
	}
	if sub.cur.Kind != tEOF {
		return xqast.AttrTemplate{}, p.lex.errf(p.lex.pos,
			"attribute value templates support a single enclosed path expression")
	}
	return xqast.AttrTemplate{Name: name, Expr: &pe}, nil
}
