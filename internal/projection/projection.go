// Package projection implements the GCX stream preprojector (paper
// Fig. 2): it reads the input token stream, matches every token against
// the projection paths derived by static analysis, and copies matched
// nodes — annotated with roles — into the buffer. Unmatched tokens are
// discarded on the fly, with a lookahead of one token. With skipping on
// (EnableSkipping) even that lookahead is not paid for a dead child:
// the preprojector is the source's event.Skipper, and Dead is the one
// place a child is found dead — it would carry no item, complete no
// role and flip no latch — so the source raw-skips it before it becomes
// a token; only live elements arrive here.
//
// Matching is NFA-style: every open element carries a set of active
// items (role, next-step index, derivation count). Descendant-axis items
// propagate down the stack, which is how a single node can be assigned
// the same role several times (one per derivation), exactly as the
// paper's multiset role semantics requires.
package projection

import (
	"fmt"
	"io"
	"slices"
	"testing"
	"unsafe"

	"gcx/internal/buffer"
	"gcx/internal/cursor"
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
	// take is, for a frame at or below an outermost match of the path
	// being forwarded (Forward), the match's derivation count from the
	// base: its tokens go to the forwarding sink, and that many
	// instances of the output role are not assigned to them. Zero
	// elsewhere.
	take int
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

	// skipping enables projection-guided subtree skipping (DESIGN.md
	// §7): the preprojector is the source's Skipper, so a dead child is
	// fast-forwarded at byte level inside the source and never arrives
	// here.
	skipping bool

	// child is the frame of the StartElement the source delivers next,
	// and done the roles it completes, as open computed them. pending
	// marks a live answer of Dead not yet delivered: startElement pushes
	// the frame, and the next Dead or an endElement drops it. flips are
	// the parent-side first-witness latches child's matches set;
	// startElement applies them, so an undelivered child changes
	// nothing.
	child   frame
	pending bool
	flips   []int32

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

	// fwd is the forwarding state while a stream output expression pulls
	// its binding (Forward); fwd.sink is nil otherwise.
	fwd forwarding

	// itemsFree recycles popped and dropped frames' items backing arrays
	// for the next open. Descendant-axis items propagate to every child
	// frame, so without recycling each element start pays one slice
	// allocation — the dominant allocator on //-axis queries.
	itemsFree [][]item
}

// New builds a preprojector for the given role projection paths (role id
// = slice index). Roles with empty paths (the paper's r1, "/") are
// assigned to the virtual root immediately.
func New(src event.Source, buf *buffer.Buffer, rolePaths []xpath.Path) *Preprojector {
	p := new(Preprojector)
	p.Reset(src, buf, rolePaths)
	return p
}

// Reset readies p for a run over src into buf, as New builds one. The
// scratch an earlier run grew — frames, items, latches, completion
// counts — is reused, so a pooled preprojector costs no allocation per
// run once it has seen the query's depth.
func (p *Preprojector) Reset(src event.Source, buf *buffer.Buffer, rolePaths []xpath.Path) {
	*p = Preprojector{
		src:       src,
		buf:       buf,
		steps:     append(p.steps[:0], make([][]xpath.Step, len(rolePaths))...),
		stack:     p.stack[:0],
		flips:     p.flips[:0],
		done:      completion{counts: p.done.counts[:0], roles: p.done.roles[:0]},
		latches:   p.latches[:0],
		itemsFree: p.itemsFree,
		fwd:       forwarding{nested: p.fwd.nested[:0], dp: p.fwd.dp[:0]},
	}
	// Text is the one part of a token that a volatile source takes back;
	// of all text tokens only those text() appends are kept.
	buf.CopyText = src.Volatile()
	root := frame{node: buffer.Hold(buf.Root), isRoot: true}
	root.items, p.itemsFree = p.reuseItems()
	done := &p.done
	for role, path := range rolePaths {
		if path.EndsWithAttribute() {
			panic("projection: attribute step in projection path " + path.String())
		}
		p.steps[role] = path.Steps
		// Resolve leading self / descendant-or-self steps against the
		// virtual root so projection-side and buffer-side matching
		// agree (the root is matched by node() only).
		p.advance(&root, item{role: role, step: 0, count: 1}, done)
	}
	for _, role := range done.roles {
		for i := 0; i < done.counts[role]; i++ {
			buf.AssignRole(buf.Root, role)
		}
	}
	done.reset()
	p.stack = append(p.stack, root)
}

// Release drops everything p holds of its run — the source, the buffer,
// the frames with their names and attributes, the plan's steps — and
// the scratch above cursor.MaxScratch, keeping the rest for Reset. The
// items arrays of the frames still open go on the free list.
func (p *Preprojector) Release() {
	p.drop()
	free, size := p.itemsFree, 0
	for _, f := range p.stack {
		if f.items != nil {
			free = append(free, f.items[:0])
		}
	}
	for _, items := range free {
		size += cap(items)
	}
	if uintptr(size)*unsafe.Sizeof(item{}) > cursor.MaxScratch {
		free = nil
	}
	clear(p.stack[:cap(p.stack)])
	clear(p.steps[:cap(p.steps)])
	clear(p.fwd.nested[:cap(p.fwd.nested)])
	*p = Preprojector{
		steps:     p.steps[:0],
		stack:     cursor.Scratch(p.stack),
		flips:     cursor.Scratch(p.flips),
		done:      completion{counts: cursor.Scratch(p.done.counts), roles: cursor.Scratch(p.done.roles)},
		latches:   cursor.Scratch(p.latches),
		itemsFree: free,
		fwd:       forwarding{nested: cursor.Scratch(p.fwd.nested), dp: cursor.Scratch(p.fwd.dp)},
	}
}

// reuseItems pops an items array off the free list for a new frame,
// emptied; nil when the list is empty.
func (p *Preprojector) reuseItems() ([]item, [][]item) {
	n := len(p.itemsFree)
	if n == 0 {
		return nil, p.itemsFree
	}
	return p.itemsFree[n-1][:0], p.itemsFree[:n-1]
}

// EnableSkipping turns on byte-level subtree skipping: it installs the
// preprojector as the source's Skipper. It must be called before the
// first Step; a nil plan marker (analysis.Plan.Automaton) leaves
// skipping off. Skipping never changes the buffered tree or the query
// output; it does change TokensProcessed, which counts neither dead
// children nor tokens inside skipped subtrees, so measurement runs that
// record per-token buffer plots keep it disabled.
func (p *Preprojector) EnableSkipping(a *xpath.Automaton) {
	if a == nil {
		return
	}
	p.skipping = true
	p.src.SetSkipper(p)
}

// Dead implements event.Skipper for a child named name of the innermost
// open frame: it runs the child's item matching, and the child is dead
// when it would carry no item, complete no role and flip no first-witness
// latch. Nothing at or below such a child can match, and skipping it
// changes no matcher state. A child whose only effect is a latch flip
// (d under $a/*[1]/self::c) is alive: the flip must happen, and a dead
// answer may not commit it, because jsontok asks at an array's '[' and
// an empty array has no element to flip anything. Its own children carry
// no items and go dead one level down.
//
// For a live child the frame open computed stays pending for
// startElement. It committed nothing, so when the source asks again
// before delivering the child — jsontok asks at an array's '[' and
// again at its first item — Dead drops it and computes the same frame.
func (p *Preprojector) Dead(name string) bool {
	p.drop()
	p.open(name)
	p.pending = true
	if len(p.child.items) == 0 && len(p.done.roles) == 0 && len(p.flips) == 0 {
		p.drop()
		return true
	}
	return false
}

// drop discards the pending child frame, if any: the latches its items
// created are cut back and its items array is recycled. Its flips were
// never applied.
func (p *Preprojector) drop() {
	if !p.pending {
		return
	}
	p.latches = p.latches[:p.child.latches]
	if p.child.items != nil {
		p.itemsFree = append(p.itemsFree, p.child.items[:0])
	}
	p.child.items = nil
	p.pending = false
}

// checkPrune turns on Prune's preconditions under go test, like the
// buffer's stale-reference checks.
var checkPrune = testing.Testing()

// Prune stops role from matching inside the open element buffered as
// base: it drops the role's items from base's frame and every deeper
// one, so children that carried nothing else answer dead and the source
// raw-skips them. It reports false, pruning nothing, when skipping is
// off or base has no open frame. The caller runs the role's sign-off on
// base at once: a queued one would find nodes that other roles buffered
// after the prune and that never received this role.
func (p *Preprojector) Prune(base *buffer.Node, role int) bool {
	if !p.skipping {
		return false
	}
	i := len(p.stack) - 1
	for i > 0 && p.stack[i].node.Node() != base {
		i--
	}
	if i == 0 {
		return false
	}
	if checkPrune {
		if p.pending {
			panic("projection: prune while a child frame is pending")
		}
		if p.buf.Queued(base, role) {
			panic(fmt.Sprintf("projection: prune of r%d under <%s> with its sign-off still queued there", role+1, base.Name))
		}
	}
	for j := i; j < len(p.stack); j++ {
		f := &p.stack[j]
		f.items = slices.DeleteFunc(f.items, func(it item) bool { return it.role == role })
	}
	return true
}

// forwarding is the state of one Forward: the base's frame, the steps
// from it to the forwarded matches, their output role, the sink the
// matches' tokens go to, and the matches nested in the open outermost
// one, which are buffered to be written again after it.
type forwarding struct {
	sink  event.Sink
	base  int
	steps []xpath.Step
	role  int
	// nests is set when the steps can match nested elements (a
	// descendant step); only then is an element inside a forwarded match
	// tested for being a match itself.
	nests bool
	// nested lists the matches nested in the open outermost match, in
	// document order, with their derivation counts from the base; ready
	// is set when that match has closed and nested is not empty. match
	// is the derivation count of the element being delivered, when it is
	// a nested match, until startElement has buffered it.
	nested []Nested
	ready  bool
	match  int
	// dp is the scratch of derivations.
	dp []int
}

// Nested is a match of a forwarded path nested in another match: the
// engine writes it again after the outer one, from the buffer, and then
// removes its Count derivations of the output role from its subtree.
type Nested struct {
	Node  buffer.Handle
	Count int
}

// Forward starts writing the matches of rel — child and descendant
// element steps — from the open element buffered as base straight to
// sink (DESIGN.md §3, "Stream-through output"). From the next token on,
// every token at or below an outermost match goes to sink, and the
// match's derivations of role through base are not assigned to it: the
// token is buffered only if another role, or another derivation of role,
// completes there. A match nested in the forwarded one is such a token:
// it is buffered and listed (Nested, Ready). The frames already open
// below base are marked the same way; what the buffer holds of them is
// the caller's to write first, and so is the role's sign-off on it.
// base must be open, so its frame is on the stack. StopForward ends the
// forwarding.
func (p *Preprojector) Forward(base *buffer.Node, rel xpath.Path, role int, sink event.Sink) {
	i := len(p.stack) - 1
	for i > 0 && p.stack[i].node.Node() != base {
		i--
	}
	if p.stack[i].node.Node() != base {
		panic("projection: forward from <" + base.Name + ">, which has no open frame")
	}
	p.fwd = forwarding{sink: sink, base: i, steps: rel.Steps, role: role, nested: p.fwd.nested[:0], dp: p.fwd.dp}
	for _, s := range rel.Steps {
		p.fwd.nests = p.fwd.nests || s.Axis == xpath.Descendant
	}
	for j := i; j < len(p.stack); j++ {
		f := &p.stack[j]
		if f.take = 0; j > i && p.stack[j-1].take > 0 {
			f.take = p.stack[j-1].take
		} else {
			f.take = p.derivations(j, f.name)
		}
	}
}

// Defer lists a match already buffered inside the open outermost match
// at Forward: it is written again after that match, like a nested match
// that arrives later.
func (p *Preprojector) Defer(n *buffer.Node, count int) {
	p.fwd.nested = append(p.fwd.nested, Nested{Node: buffer.Hold(n), Count: count})
}

// Ready reports whether an outermost match has closed with matches
// nested in it, which the caller writes and signs off (TakeNested)
// before the next token.
func (p *Preprojector) Ready() bool { return p.fwd.ready }

// TakeNested returns the nested matches and empties the list; the slice
// is valid until the next Forward.
func (p *Preprojector) TakeNested() []Nested {
	nested := p.fwd.nested
	p.fwd.nested, p.fwd.ready = nested[:0], false
	return nested
}

// StopForward ends a Forward once its base has closed, popping every
// frame it marked. (A run that fails before leaves marked frames, which
// Reset and Release discard.)
func (p *Preprojector) StopForward() {
	clear(p.fwd.nested)
	p.fwd = forwarding{nested: p.fwd.nested[:0], dp: p.fwd.dp}
}

// derivations counts the derivations of the forwarded path from the
// base to the element named name whose frame is or will be at stack
// index i: the ways its steps match the names on the way down, a child
// step the next name, a descendant step any later one. The counts are
// those buffer.Matches gives.
func (p *Preprojector) derivations(i int, name string) int {
	steps := p.fwd.steps
	d, k := i-p.fwd.base, len(steps)
	if d < k || (d > k && !p.fwd.nests) || (k > 0 && !steps[k-1].Test.MatchesElement(name)) {
		return 0
	}
	if k == 0 {
		return 1 // the base itself
	}
	// prev[pos] counts the ways the steps so far end at depth pos below
	// the base (pos 0 is the base itself); cur is the next step's.
	dp := append(p.fwd.dp[:0], make([]int, 2*(d+1))...)
	p.fwd.dp = dp
	prev, cur := dp[:d+1], dp[d+1:]
	prev[0] = 1
	for _, s := range steps {
		sum := 0
		cur[0] = 0
		for pos := 1; pos <= d; pos++ {
			sum += prev[pos-1]
			n := name
			if pos < d {
				n = p.stack[p.fwd.base+pos].name
			}
			switch {
			case !s.Test.MatchesElement(n):
				cur[pos] = 0
			case s.Axis == xpath.Child:
				cur[pos] = prev[pos-1]
			default:
				cur[pos] = sum
			}
		}
		prev, cur = cur, prev
	}
	return prev[d]
}

// forwardStart decides what forwarding does with a delivered element
// that completes some role — every element of a match completes the
// output role, so no other needs asking. At or below an outermost match
// it writes the start tag to the sink and takes the match's derivations
// out of the completion; a match nested in the forwarded one keeps its
// own, and startElement lists it once buffered. It reports whether
// anything is left to buffer.
func (p *Preprojector) forwardStart(nf *frame, tok event.Token) bool {
	i := len(p.stack)
	if parent := p.stack[i-1].take; parent > 0 {
		nf.take = parent
		if p.fwd.nests {
			p.fwd.match = p.derivations(i, tok.Name)
		}
	} else if nf.take = p.derivations(i, tok.Name); nf.take == 0 {
		return true
	}
	p.fwd.sink.StartElement(tok.Name, tok.Attrs)
	return !p.done.take(p.fwd.role, nf.take)
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
		p.startElement(tok)
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

// take removes n instances of role, which the token completes, and
// reports whether no role instance is left.
func (c *completion) take(role, n int) bool {
	if role >= len(c.counts) || c.counts[role] < n {
		panic(fmt.Sprintf("projection: forwarded token does not complete its output role r%d %d times", role+1, n))
	}
	c.counts[role] -= n
	for _, r := range c.roles {
		if c.counts[r] > 0 {
			return false
		}
	}
	return true
}

func (c *completion) reset() {
	for _, r := range c.roles {
		c.counts[r] = 0
	}
	c.roles = c.roles[:0]
}

// startElement pushes the frame of a delivered StartElement. With
// skipping on, the source has asked Dead about it, which computed the
// frame; a source without a skipper (a recording run) asked nobody, so
// the frame is computed here.
func (p *Preprojector) startElement(tok event.Token) {
	if !p.pending {
		p.open(tok.Name)
	}
	p.pending = false
	for _, l := range p.flips {
		p.latches[l] = true
	}
	nf := p.child
	nf.attrs = tok.Attrs
	if done := &p.done; len(done.roles) > 0 && (p.fwd.sink == nil || p.forwardStart(&nf, tok)) {
		n := p.materialize(tok.Name, tok.Attrs)
		nf.node = buffer.Hold(n)
		for _, role := range done.roles {
			for i := 0; i < done.counts[role]; i++ {
				p.buf.AssignRole(n, role)
			}
		}
		if p.fwd.match > 0 {
			p.Defer(n, p.fwd.match)
			p.fwd.match = 0
		}
	}
	p.stack = append(p.stack, nf)
}

// open matches a child named name against the innermost open frame's
// items: it computes the child's frame into p.child and the roles the
// child completes into p.done. Latches the child's own items create are
// appended to p.latches; the parent-side latches its matches set are
// only recorded, in p.flips.
func (p *Preprojector) open(name string) {
	parent := &p.stack[len(p.stack)-1]
	nf := &p.child
	*nf = frame{name: name, latches: len(p.latches)}
	nf.items, p.itemsFree = p.reuseItems()
	p.flips = p.flips[:0]
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
			if step.Test.MatchesElement(name) {
				if step.FirstOnly {
					p.flips = append(p.flips, it.latch-1)
				}
				p.advance(nf, item{role: it.role, step: it.step + 1, count: it.count}, done)
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
			if step.Test.MatchesElement(name) {
				if step.FirstOnly {
					p.flips = append(p.flips, it.latch-1)
				}
				p.advance(nf, item{role: it.role, step: it.step + 1, count: it.count}, done)
			}
		default:
			// Self axis items are resolved eagerly in advance; Attribute
			// never occurs in projection paths.
		}
	}
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
	// A live child that never came: an empty JSON array, asked about at
	// its '['.
	p.drop()
	top := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.latches = p.latches[:top.latches]
	if top.items != nil {
		// Frames never share items backing arrays (advance copies item
		// values), so the popped frame's array can serve the next
		// startElement.
		p.itemsFree = append(p.itemsFree, top.items[:0])
	}
	if top.take > 0 {
		p.fwd.sink.EndElement(top.name)
		if p.stack[len(p.stack)-1].take == 0 && len(p.fwd.nested) > 0 {
			p.fwd.ready = true
		}
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
	if top.take > 0 {
		// Text below a forwarded match: written now, while a volatile
		// source's view is still valid.
		p.fwd.sink.Text(tok.Text)
		if done.take(p.fwd.role, top.take) {
			return
		}
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
