package buffer

import (
	"errors"
	"fmt"
	"strings"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// ErrBudget is the sentinel of a node-budget breach: allocating one more
// node would push the buffer population past MaxNodes. The engine
// surfaces it (wrapped with the concrete numbers) instead of letting the
// buffer grow without bound; match with errors.Is.
var ErrBudget = errors.New("buffer node budget exceeded")

// Buffer is the buffer manager's store: the tree of buffered nodes and
// the accounting needed for the paper's plots and invariants.
type Buffer struct {
	// Root is the virtual document root, root's address.
	Root *Node
	root Node

	// CurrentNodes is the paper's y-axis: buffered element and text
	// nodes (the virtual root is not counted).
	CurrentNodes int64
	// PeakNodes is the high watermark of CurrentNodes.
	PeakNodes int64
	// CurrentBytes estimates the resident size of the buffered tree
	// (per-node overhead plus name/text/attribute payloads); PeakBytes
	// is its high watermark — the "memory consumption" column of the
	// paper's Figure 5.
	CurrentBytes int64
	PeakBytes    int64
	// TotalAppended counts every node ever buffered.
	TotalAppended int64
	// TotalPurged counts every node ever purged.
	TotalPurged int64

	// assigned/removed count role instances for the balance invariant,
	// indexed by role id (role ids are dense: the plan's slice indexes).
	assigned []int64
	removed  []int64

	// pending holds deferred sign-offs (see PendingSignOffs).
	pending []pendingSignOff

	// DisableGC turns the purge step off. The projection-only baseline
	// engine (static analysis without dynamic buffer minimization) runs
	// with this set: roles are still tracked, nothing is ever freed.
	DisableGC bool

	// MaxNodes, when positive, is the node budget: the first allocation
	// that would push CurrentNodes past it trips the sticky breached
	// flag (see BudgetErr). The allocation itself still succeeds — the
	// engine checks BudgetErr at its next token boundary and aborts
	// gracefully, so enforcement costs one compare per node, not an
	// error path through the allocator.
	MaxNodes int64
	breached bool

	// CopyText makes AppendText copy the text it is handed into texts,
	// the buffer's arena — copy on keep. Whoever fills the buffer from a
	// volatile event.Source sets it (projection.New), because such a
	// source's text is a view that dies at the next pull.
	CopyText bool
	texts    cursor.Arena

	// Node arena: nodes are carved out of pooled slabs so that one
	// execution's node churn does not translate into one allocation per
	// buffered node. Slabs go back to the pool in Release. A purged node
	// goes on the free list and is the next one handed out, so a run's
	// resident node memory follows the buffer's peak, not the number of
	// nodes ever appended. Every reference that can outlive a purge is
	// either pinned or a generation-checked Handle (DESIGN.md §13).
	slab     *nodeSlab
	slabUsed int
	slabs    []*nodeSlab
	free     *Node // purged nodes, linked through NextSib

	// matchA/matchB are the evaluator's ping-pong scratch: each path
	// step reads its sources from one and writes its results to the
	// other (eval.go).
	matchA, matchB []Match
}

// slabSize is the number of nodes per arena slab (~44 KiB of Node
// structs).
const slabSize = 256

type nodeSlab [slabSize]Node

var slabPool = cursor.NewPool(func() *nodeSlab { return new(nodeSlab) })

// newNode hands out a zeroed node: the most recently purged one if
// there is any, else the next of the current slab.
func (b *Buffer) newNode() *Node {
	if b.MaxNodes > 0 && b.CurrentNodes >= b.MaxNodes {
		b.breached = true
	}
	if n := b.free; n != nil {
		b.free = n.NextSib
		*n = Node{gen: n.gen}
		return n
	}
	if b.slab == nil || b.slabUsed == slabSize {
		b.slab = slabPool.Get()
		b.slabs = append(b.slabs, b.slab)
		b.slabUsed = 0
	}
	n := &b.slab[b.slabUsed]
	b.slabUsed++
	return n
}

// Release hands the buffer's node slabs back to the pool and drops every
// reference its scratch holds into the run. It must only be called once
// no node of this buffer is referenced anymore — after the run's results
// have been extracted. The buffer is unusable afterwards (Root is nil so
// accidental reuse fails fast) until Reset readies it for another run.
func (b *Buffer) Release() {
	for i, s := range b.slabs {
		*s = nodeSlab{}
		slabPool.Put(s)
		b.slabs[i] = nil
	}
	b.slabs = b.slabs[:0]
	b.slab = nil
	b.slabUsed = 0
	b.free = nil
	b.Root = nil
	b.root = Node{gen: b.root.gen + 1}
	clear(b.pending[:cap(b.pending)])
	clear(b.matchA[:cap(b.matchA)])
	clear(b.matchB[:cap(b.matchB)])
}

// New returns an empty buffer containing only the (permanently pinned)
// virtual root.
func New() *Buffer {
	b := new(Buffer)
	b.Reset()
	return b
}

// Reset empties the buffer for another run: only the virtual root
// remains, every counter and setting is zero, and the scratch that
// amortizes across runs — the role counters, the sign-off queue, the
// match lists and the text arena's current block — keeps its capacity,
// up to cursor.MaxScratch. A handle on the old root stops matching.
func (b *Buffer) Reset() {
	*b = Buffer{
		assigned: cursor.Scratch(b.assigned),
		removed:  cursor.Scratch(b.removed),
		pending:  cursor.Scratch(b.pending),
		matchA:   cursor.Scratch(b.matchA),
		matchB:   cursor.Scratch(b.matchB),
		texts:    b.texts,
		slabs:    cursor.Scratch(b.slabs),
		root:     Node{Kind: KindRoot, pins: 1, subtreeWeight: 1, gen: b.root.gen + 1},
	}
	b.Root = &b.root
}

// BudgetErr returns nil while the buffer has stayed within MaxNodes,
// and an error wrapping ErrBudget once an allocation has crossed the
// budget. The flag is sticky: garbage collection dropping the
// population back under budget does not clear it, so a breach is
// reported even when the watermark only spiked.
func (b *Buffer) BudgetErr() error {
	if !b.breached {
		return nil
	}
	return fmt.Errorf("%w: %d nodes buffered, budget %d (peak %d)",
		ErrBudget, b.CurrentNodes, b.MaxNodes, b.PeakNodes)
}

// AssignedTotal returns the number of instances of role assigned so far.
func (b *Buffer) AssignedTotal(role int) int64 {
	if role >= len(b.assigned) {
		return 0
	}
	return b.assigned[role]
}

// RemovedTotal returns the number of instances of role removed so far.
func (b *Buffer) RemovedTotal(role int) int64 {
	if role >= len(b.removed) {
		return 0
	}
	return b.removed[role]
}

// addWeight adjusts the subtreeWeight chain from n to the root.
func addWeight(n *Node, delta int64) {
	for p := n; p != nil; p = p.Parent {
		p.subtreeWeight += delta
	}
}

// addNodes adjusts the subtreeNodes chain from n to the root.
func addNodes(n *Node, delta int64) {
	for p := n; p != nil; p = p.Parent {
		p.subtreeNodes += delta
	}
}

// AppendElement buffers a new element under parent. The node starts
// open: it carries one pin until CloseNode is called, so it cannot be
// purged while its subtree is still streaming in.
func (b *Buffer) AppendElement(parent *Node, name string, attrs []event.Attr) *Node {
	parent.assertLive()
	n := b.newNode()
	n.Kind = KindElement
	n.Name = name
	n.Attrs = attrs
	n.Parent = parent
	n.pins = 1
	b.link(parent, n)
	addWeight(n, 1) // the open pin
	return n
}

// AppendText buffers a text node under parent. Text nodes are born
// closed and unpinned. The preprojector only buffers text that matched a
// projection path, so the caller must assign at least one role right
// after appending; a permanently role-less text node would violate the
// zero-weight-is-purged invariant.
func (b *Buffer) AppendText(parent *Node, text string) *Node {
	parent.assertLive()
	if b.CopyText {
		text = b.texts.Own(text)
	}
	n := b.newNode()
	n.Kind = KindText
	n.Text = text
	n.Parent = parent
	n.Closed = true
	b.link(parent, n)
	return n
}

// nodeBytes estimates the resident size of a single buffered node:
// struct overhead plus payload strings.
func nodeBytes(n *Node) int64 {
	size := int64(128) // struct, links, role multiset
	size += int64(len(n.Name) + len(n.Text))
	for _, a := range n.Attrs {
		size += int64(len(a.Name) + len(a.Value) + 32)
	}
	return size
}

func (b *Buffer) link(parent, n *Node) {
	n.subtreeNodes = 1
	n.bytes = nodeBytes(n)
	if parent.LastChild != nil {
		parent.LastChild.NextSib = n
		n.PrevSib = parent.LastChild
		parent.LastChild = n
	} else {
		parent.FirstChild = n
		parent.LastChild = n
	}
	addNodes(parent, 1)
	b.CurrentNodes++
	b.CurrentBytes += n.bytes
	b.TotalAppended++
	if b.CurrentNodes > b.PeakNodes {
		b.PeakNodes = b.CurrentNodes
	}
	if b.CurrentBytes > b.PeakBytes {
		b.PeakBytes = b.CurrentBytes
	}
}

// AssignRole adds one instance of role to n.
func (b *Buffer) AssignRole(n *Node, role int) {
	n.assertLive()
	n.addRole(role)
	if n := role + 1 - len(b.assigned); n > 0 {
		b.assigned = append(b.assigned, make([]int64, n)...)
		b.removed = append(b.removed, make([]int64, n)...)
	}
	b.assigned[role]++
	addWeight(n, 1)
}

// RemoveRole removes count instances of role from n and garbage-collects.
// It panics if the node does not carry that many instances — that would
// be a sign-off placement bug, which the engine must never produce.
func (b *Buffer) RemoveRole(n *Node, role, count int) {
	if count == 0 {
		return
	}
	n.assertLive()
	if !n.dropRole(role, count) {
		panic(fmt.Sprintf("buffer: removing %d×r%d from node <%s> carrying %d", count, role+1, n.Name, n.RoleCount(role)))
	}
	b.removed[role] += int64(count)
	addWeight(n, -int64(count))
	b.collect(n)
}

// Pin protects n from purging (an evaluator reference such as the
// current for-loop binding). Pins nest.
func (b *Buffer) Pin(n *Node) {
	n.assertLive()
	n.pins++
	addWeight(n, 1)
}

// Unpin releases a pin and garbage-collects.
func (b *Buffer) Unpin(n *Node) {
	n.assertLive()
	if n.pins == 0 {
		panic("buffer: unpin of unpinned node")
	}
	n.pins--
	addWeight(n, -1)
	b.collect(n)
}

// CloseNode records the arrival of n's end tag and releases its open
// pin.
func (b *Buffer) CloseNode(n *Node) {
	if n.Closed {
		return
	}
	n.Closed = true
	b.Unpin(n)
}

// collect purges the largest purgeable subtree containing n: it climbs
// to the highest ancestor whose subtreeWeight is zero and unlinks it.
// This is the paper's active garbage collection, triggered by the
// reception of signOff statements (and by pin releases).
func (b *Buffer) collect(n *Node) {
	if b.DisableGC {
		return
	}
	if n.subtreeWeight != 0 || n.unlinked {
		return
	}
	victim := n
	for victim.Parent != nil && victim.Parent.Kind != KindRoot && victim.Parent.subtreeWeight == 0 {
		victim = victim.Parent
	}
	if victim.Kind == KindRoot {
		return
	}
	b.unlink(victim)
}

func (b *Buffer) unlink(n *Node) {
	parent := n.Parent
	if n.PrevSib != nil {
		n.PrevSib.NextSib = n.NextSib
	} else if parent != nil {
		parent.FirstChild = n.NextSib
	}
	if n.NextSib != nil {
		n.NextSib.PrevSib = n.PrevSib
	} else if parent != nil {
		parent.LastChild = n.PrevSib
	}
	if parent != nil {
		addNodes(parent, -n.subtreeNodes)
	}
	b.CurrentNodes -= n.subtreeNodes
	b.TotalPurged += n.subtreeNodes
	b.CurrentBytes -= b.releaseSubtree(n)
}

// releaseSubtree sums the per-node size estimates of a purged subtree
// and puts each of its nodes on the free list. Name, text and attribute
// strings are dropped so the purged data becomes collectible
// immediately, every node is marked unlinked so a stale reference sees
// the purge, and its generation advances so a Handle taken earlier
// stops matching. It runs once per purged subtree, so the total cost
// over a run is linear in the number of nodes ever buffered.
func (b *Buffer) releaseSubtree(n *Node) int64 {
	total := n.bytes
	for c := n.FirstChild; c != nil; {
		next := c.NextSib
		total += b.releaseSubtree(c)
		c = next
	}
	*n = Node{Closed: n.Closed, unlinked: true, gen: n.gen + 1, NextSib: b.free}
	b.free = n
	return total
}

// Dump renders the buffer tree with role annotations, reproducing the
// paper's Figure 1 pictures (e.g. "book{r3,r5,r6}"). roleName may be
// nil, in which case roles print as r1, r2, ...
func (b *Buffer) Dump(roleName func(int) string) string {
	var sb strings.Builder
	dumpNode(&sb, b.Root, 0, roleName)
	return sb.String()
}

func dumpNode(sb *strings.Builder, n *Node, depth int, roleName func(int) string) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.label(roleName))
	sb.WriteString("\n")
	for c := n.FirstChild; c != nil; c = c.NextSib {
		dumpNode(sb, c, depth+1, roleName)
	}
}

// CheckInvariants verifies the structural accounting of the whole
// buffer; tests call it after every mutation sequence.
func (b *Buffer) CheckInvariants() error {
	_, nodes, err := b.checkSubtree(b.Root)
	if err != nil {
		return err
	}
	if nodes != b.CurrentNodes {
		return fmt.Errorf("CurrentNodes=%d, recomputed %d", b.CurrentNodes, nodes)
	}
	return nil
}

// checkSubtree recomputes n's subtree weight and node count bottom-up,
// compares them with the maintained counters, and — when garbage
// collection is on — rejects a zero-weight node that is still linked.
func (b *Buffer) checkSubtree(n *Node) (weight, nodes int64, err error) {
	weight = int64(n.pins) + int64(n.RoleTotal())
	if n.Kind != KindRoot {
		nodes = 1
	}
	for c := n.FirstChild; c != nil; c = c.NextSib {
		if c.Parent != n {
			return 0, 0, fmt.Errorf("child %q has wrong parent", c.Name)
		}
		w, m, err := b.checkSubtree(c)
		if err != nil {
			return 0, 0, err
		}
		weight += w
		nodes += m
	}
	if weight != n.subtreeWeight {
		return 0, 0, fmt.Errorf("node %q subtreeWeight=%d, recomputed %d", n.Name, n.subtreeWeight, weight)
	}
	if n.subtreeNodes != nodes {
		return 0, 0, fmt.Errorf("node %q subtreeNodes=%d, recomputed %d", n.Name, n.subtreeNodes, nodes)
	}
	if !b.DisableGC && n.Kind != KindRoot && weight == 0 {
		return 0, 0, fmt.Errorf("unpurged zero-weight node %q", n.Name)
	}
	return weight, nodes, nil
}

// CheckBalance verifies assigned == removed for every role; valid only
// after evaluation has completed.
func (b *Buffer) CheckBalance() error {
	for role, a := range b.assigned {
		if r := b.removed[role]; r != a {
			return fmt.Errorf("role r%d: assigned %d, removed %d", role+1, a, r)
		}
	}
	return nil
}

// Serialize writes the subtree of n to s (opening tag, content, closing
// tag; text nodes as character data). Of an element still open it
// writes what is buffered so far and no closing tag, which is still to
// come from the stream: the open child of an open node is its last one,
// so the output ends where the stream resumes (stream-through output,
// DESIGN.md §3).
func Serialize(n *Node, s event.Sink) {
	n.assertLive()
	switch n.Kind {
	case KindText:
		s.Text(n.Text)
	case KindElement:
		s.StartElement(n.Name, n.Attrs)
		for c := n.FirstChild; c != nil; c = c.NextSib {
			Serialize(c, s)
		}
		if n.Closed {
			s.EndElement(n.Name)
		}
	case KindRoot:
		for c := n.FirstChild; c != nil; c = c.NextSib {
			Serialize(c, s)
		}
	}
}
