// Package projection implements the GCX stream preprojector (paper
// Fig. 2): it reads the input token stream, matches every token against
// the projection paths derived by static analysis, and copies matched
// nodes — annotated with roles — into the buffer. Unmatched tokens are
// discarded on the fly, with a lookahead of one token.
//
// Matching is NFA-style: every open element carries a set of active
// items (role, next-step index, derivation count). Descendant-axis items
// propagate down the stack, which is how a single node can be assigned
// the same role several times (one per derivation), exactly as the
// paper's multiset role semantics requires.
package projection

import (
	"io"

	"gcx/internal/buffer"
	"gcx/internal/event"
	"gcx/internal/xpath"
)

// item is an active matching position: role's path has matched a prefix
// and expects Steps[step] next.
type item struct {
	role  int
	step  int
	count int
	// latch is the shared first-witness latch for steps with FirstOnly,
	// as a 1-based index into Preprojector.latches (0: none yet): all
	// propagated copies of the item share it, so at most one node per
	// context is matched.
	latch int32
}

// frame is the matcher state of one open element.
type frame struct {
	name  string
	attrs []event.Attr
	// isRoot marks the virtual-root frame, which is matched by node()
	// tests only (never by name or wildcard tests).
	isRoot bool
	// node is the buffered node, or the zero handle while the element is
	// unmatched (it may later be materialized as a skeleton ancestor).
	// The node carries its open pin for as long as the frame is on the
	// stack; the handle asserts that under go test.
	node  buffer.Handle
	items []item
	// latches is the length of Preprojector.latches when the frame was
	// opened: the latches beyond it are the frame's own.
	latches int
}

// matchesSelf applies a node test to the frame's own node.
func (f *frame) matchesSelf(test xpath.Test) bool {
	if f.isRoot {
		return test.Kind == xpath.TestNode
	}
	return test.MatchesElement(f.name)
}

// Preprojector drives the tokenizer and fills the buffer.
type Preprojector struct {
	src   event.Source
	buf   *buffer.Buffer
	steps [][]xpath.Step // role id → compiled steps
	stack []frame
	eof   bool

	// dfa, when non-nil, enables projection-guided subtree skipping
	// (DESIGN.md §7): dfaStack carries one automaton state per open
	// frame, and a StartElement whose successor state is dead — no
	// projection path can match at or below it — is fast-forwarded at
	// byte level via Source.SkipSubtree instead of being matched
	// frame by frame.
	dfa      *xpath.Automaton
	dfaStack []int32

	// OnToken, if set, is invoked after every processed token — the
	// hook used to record the paper's buffer plots.
	OnToken func()

	// done is the per-token completion scratch, reused across tokens so
	// completing a role costs no allocation.
	done completion

	// latches holds the first-witness latches of the open frames' items.
	// A latch is created by the frame whose item first reaches a
	// FirstOnly step and is shared only with copies of that item in
	// deeper frames, so the latches form a stack that endElement cuts
	// back along with the frame stack.
	latches []bool

	// itemsFree recycles popped frames' items backing arrays for the
	// next startElement. Descendant-axis items propagate to every child
	// frame, so without recycling each element start pays one slice
	// allocation — the dominant allocator on //-axis queries.
	itemsFree [][]item
}

// New builds a preprojector for the given role projection paths (role id
// = slice index). Roles with empty paths (the paper's r1, "/") are
// assigned to the virtual root immediately.
func New(src event.Source, buf *buffer.Buffer, rolePaths []xpath.Path) *Preprojector {
	p := &Preprojector{
		src:   src,
		buf:   buf,
		steps: make([][]xpath.Step, len(rolePaths)),
	}
	// Text is the one part of a token that a volatile source takes back;
	// of all text tokens only those text() appends are kept.
	buf.CopyText = src.Volatile()
	root := frame{node: buffer.Hold(buf.Root), isRoot: true}
	var done completion
	for role, path := range rolePaths {
		if path.EndsWithAttribute() {
			panic("projection: attribute step in projection path " + path.String())
		}
		p.steps[role] = path.Steps
		// Resolve leading self / descendant-or-self steps against the
		// virtual root so projection-side and buffer-side matching
		// agree (the root is matched by node() only).
		p.advance(&root, item{role: role, step: 0, count: 1}, &done)
	}
	for _, role := range done.roles {
		for i := 0; i < done.counts[role]; i++ {
			buf.AssignRole(buf.Root, role)
		}
	}
	p.stack = append(p.stack, root)
	return p
}

// EnableSkipping turns on byte-level subtree skipping driven by the
// given path automaton (compiled from the same role paths this
// preprojector matches — analysis.Plan.Automaton). It must be called
// before the first Step; a nil automaton leaves skipping off. Skipping
// never changes the buffered tree or the query output; it does change
// TokensProcessed, which stops counting tokens inside skipped
// subtrees, so measurement runs that record per-token buffer plots
// keep it disabled.
func (p *Preprojector) EnableSkipping(a *xpath.Automaton) {
	if a == nil {
		return
	}
	p.dfa = a
	p.dfaStack = append(p.dfaStack[:0], a.Start())
}

// TokensProcessed reports the number of input tokens consumed.
func (p *Preprojector) TokensProcessed() int64 { return p.src.TokenCount() }

// EOF reports whether the input is exhausted.
func (p *Preprojector) EOF() bool { return p.eof }

// Step processes exactly one input token. It returns false when the
// input is exhausted.
func (p *Preprojector) Step() (bool, error) {
	if p.eof {
		return false, nil
	}
	tok, err := p.src.Next()
	if err == io.EOF {
		p.eof = true
		return false, nil
	}
	if err != nil {
		return false, err
	}
	switch tok.Kind {
	case event.StartElement:
		if err := p.startElement(tok); err != nil {
			return false, err
		}
	case event.EndElement:
		p.endElement()
	case event.Text:
		p.text(tok)
	}
	if p.OnToken != nil {
		p.OnToken()
	}
	return true, nil
}

// Run processes tokens until EOF (used by the projection-only baseline
// and tests; the GCX engine pulls token by token instead).
func (p *Preprojector) Run() error {
	for {
		ok, err := p.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// completion accumulates roles completed at the current token. counts
// is indexed by role id and roles lists the touched ids in completion
// order, so iteration is deterministic and reset touches only what the
// token completed — no per-token map allocation.
type completion struct {
	counts []int
	roles  []int
}

func (c *completion) add(role, count int) {
	if role >= len(c.counts) {
		c.counts = append(c.counts, make([]int, role+1-len(c.counts))...)
	}
	if c.counts[role] == 0 {
		c.roles = append(c.roles, role)
	}
	c.counts[role] += count
}

func (c *completion) reset() {
	for _, r := range c.roles {
		c.counts[r] = 0
	}
	c.roles = c.roles[:0]
}

func (p *Preprojector) startElement(tok event.Token) error {
	var dfaNext int32
	if p.dfa != nil {
		// Static dead-state test: a single table lookup decides subtree
		// relevance before any per-item test re-evaluation happens.
		dfaNext = p.dfa.Next(p.dfaStack[len(p.dfaStack)-1], tok.Name)
		if p.dfa.Dead(dfaNext) {
			return p.src.SkipSubtree()
		}
	}
	parent := &p.stack[len(p.stack)-1]
	nf := frame{name: tok.Name, attrs: tok.Attrs, latches: len(p.latches)}
	if n := len(p.itemsFree); n > 0 {
		nf.items = p.itemsFree[n-1]
		p.itemsFree = p.itemsFree[:n-1]
	}
	done := &p.done
	done.reset()

	for i := range parent.items {
		it := &parent.items[i]
		step := p.steps[it.role][it.step]
		switch step.Axis {
		case xpath.Child:
			if step.FirstOnly && p.latches[it.latch-1] {
				continue
			}
			if step.Test.MatchesElement(tok.Name) {
				if step.FirstOnly {
					p.latches[it.latch-1] = true
				}
				p.advance(&nf, item{role: it.role, step: it.step + 1, count: it.count}, done)
			}
		case xpath.Descendant, xpath.DescendantOrSelf:
			// The self part of descendant-or-self was consumed when the
			// item was created (see advance); for children both axes
			// search the whole remaining subtree.
			if step.FirstOnly && p.latches[it.latch-1] {
				continue
			}
			// keep searching deeper
			nf.items = append(nf.items, *it)
			if step.Test.MatchesElement(tok.Name) {
				if step.FirstOnly {
					p.latches[it.latch-1] = true
				}
				p.advance(&nf, item{role: it.role, step: it.step + 1, count: it.count}, done)
			}
		default:
			// Self axis items are resolved eagerly in advance; Attribute
			// never occurs in projection paths.
		}
	}

	if len(done.roles) > 0 {
		n := p.materialize(tok.Name, tok.Attrs)
		nf.node = buffer.Hold(n)
		for _, role := range done.roles {
			for i := 0; i < done.counts[role]; i++ {
				p.buf.AssignRole(n, role)
			}
		}
	} else if p.dfa != nil && len(nf.items) == 0 {
		// Dynamic dead test: the automaton over-approximates (it
		// ignores first-witness [1] latches), so an element can be
		// statically alive yet carry no active items and no completed
		// role — nothing below it can match either. Skip it too.
		p.latches = p.latches[:nf.latches]
		return p.src.SkipSubtree()
	}
	p.stack = append(p.stack, nf)
	if p.dfa != nil {
		p.dfaStack = append(p.dfaStack, dfaNext)
	}
	return nil
}

// advance places item it into frame nf, resolving steps that can match
// the frame's own node without consuming input (Self and the self part
// of DescendantOrSelf). Completed roles are recorded in done.
func (p *Preprojector) advance(nf *frame, it item, done *completion) {
	steps := p.steps[it.role]
	if it.step >= len(steps) {
		// Path fully matched: the role completes at this node.
		done.add(it.role, it.count)
		return
	}
	step := steps[it.step]
	if step.FirstOnly && it.latch == 0 {
		p.latches = append(p.latches, false)
		it.latch = int32(len(p.latches))
	}
	switch step.Axis {
	case xpath.Self:
		if nf.matchesSelf(step.Test) {
			p.advance(nf, item{role: it.role, step: it.step + 1, count: it.count}, done)
		}
	case xpath.DescendantOrSelf:
		// self part now …
		if nf.matchesSelf(step.Test) {
			if step.FirstOnly {
				p.latches[it.latch-1] = true
			}
			p.advance(nf, item{role: it.role, step: it.step + 1, count: it.count}, done)
		}
		// … and the descendant part stays active for the children.
		if !(step.FirstOnly && p.latches[it.latch-1]) {
			nf.items = append(nf.items, it)
		}
	default:
		nf.items = append(nf.items, it)
	}
}

func (p *Preprojector) endElement() {
	top := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.latches = p.latches[:top.latches]
	if p.dfa != nil {
		p.dfaStack = p.dfaStack[:len(p.dfaStack)-1]
	}
	if top.items != nil {
		// Frames never share items backing arrays (advance copies item
		// values), so the popped frame's array can serve the next
		// startElement.
		p.itemsFree = append(p.itemsFree, top.items[:0])
	}
	if n := top.node.Node(); n != nil {
		p.buf.CloseNode(n)
	}
}

func (p *Preprojector) text(tok event.Token) {
	top := &p.stack[len(p.stack)-1]
	done := &p.done
	done.reset()
	for i := range top.items {
		it := &top.items[i]
		steps := p.steps[it.role]
		step := steps[it.step]
		if step.FirstOnly && p.latches[it.latch-1] {
			continue
		}
		switch step.Axis {
		case xpath.Child, xpath.Descendant, xpath.DescendantOrSelf:
			// Text nodes are leaves, so the role completes here only if
			// any remaining steps are satisfied by the text node itself
			// (self / descendant-or-self tails, as in
			// …/text()/descendant-or-self::node()).
			if step.Test.MatchesText() && textTail(steps, it.step+1) {
				if step.FirstOnly {
					p.latches[it.latch-1] = true
				}
				done.add(it.role, it.count)
			}
		}
	}
	if len(done.roles) == 0 {
		return
	}
	parent := p.materializeStack()
	n := p.buf.AppendText(parent, tok.Text)
	for _, role := range done.roles {
		for i := 0; i < done.counts[role]; i++ {
			p.buf.AssignRole(n, role)
		}
	}
}

// textTail reports whether the remaining steps can all be consumed by a
// text node without moving: each must be a self or descendant-or-self
// step whose test matches text. This mirrors the buffer-side evaluation,
// where descendant-or-self from a leaf matches the leaf itself.
func textTail(steps []xpath.Step, from int) bool {
	for _, s := range steps[from:] {
		if s.Axis != xpath.Self && s.Axis != xpath.DescendantOrSelf {
			return false
		}
		if !s.Test.MatchesText() {
			return false
		}
	}
	return true
}

// materialize returns the buffer node for a new element completing a
// role: it ensures all open ancestors are buffered (creating role-less
// skeleton nodes as needed to preserve tree structure) and appends the
// element itself.
func (p *Preprojector) materialize(name string, attrs []event.Attr) *buffer.Node {
	parent := p.materializeStack()
	return p.buf.AppendElement(parent, name, attrs)
}

// materializeStack ensures every open element on the stack has a buffer
// node and returns the innermost one.
func (p *Preprojector) materializeStack() *buffer.Node {
	// find deepest already-materialized ancestor
	i := len(p.stack) - 1
	for p.stack[i].node.Node() == nil {
		i--
	}
	parent := p.stack[i].node.Node()
	for j := i + 1; j < len(p.stack); j++ {
		parent = p.buf.AppendElement(parent, p.stack[j].name, p.stack[j].attrs)
		p.stack[j].node = buffer.Hold(parent)
	}
	return parent
}
