package buffer

import (
	"gcx/internal/xpath"
)

// Match is a node reached by a path evaluation together with its
// derivation multiplicity. Paths with descendant axes can reach the same
// node through several derivations; the paper's role accounting is a
// multiset, so removals must respect multiplicity.
type Match struct {
	Node  *Node
	Count int
}

// Matches evaluates path relative to base over the buffered tree and
// returns the matched nodes with derivation multiplicities: each node
// once, counts aggregated, in document order. The slice is the
// buffer's scratch — it is valid until the next Matches,
// SelectDocOrder or SignOffNow on this buffer.
//
// Attribute steps are rejected: attributes are element properties in
// this system and never appear in projection or sign-off paths.
//
// Each step expands the previous step's nodes (its sources) one by one
// into the other scratch slice. The expansion alone keeps the list
// duplicate-free and in document order as long as the sources are an
// antichain — no source an ancestor of another — listed in document
// order: their subtrees are then disjoint and follow one another, so
// whatever each contributes is new and comes after everything before
// it. A single node is an antichain; self steps filter one and child
// steps map one to another (children of one parent are siblings,
// children of different sources lie in disjoint subtrees). Only a
// descendant-axis step with two or more results can produce nested
// nodes. From nested sources a child step still cannot reach a node
// twice (a node has one parent) but can emit out of order, and a
// descendant step can do both — so exactly those steps, and only when
// they have two or more sources, are followed by normalize.
func (b *Buffer) Matches(base *Node, path xpath.Path) []Match {
	if path.EndsWithAttribute() {
		panic("buffer: attribute step in buffered-path evaluation")
	}
	base.assertLive()
	cur := append(b.matchA[:0], Match{Node: base, Count: 1})
	out := b.matchB[:0]
	nested := false // cur may hold a node together with one of its ancestors
	for _, step := range path.Steps {
		out = out[:0]
		for _, src := range cur {
			out = expand(out, src, step)
		}
		if nested && len(cur) > 1 && step.Axis != xpath.Self {
			out = normalize(base, out)
		}
		switch step.Axis {
		case xpath.Child:
			nested = nested && len(cur) > 1
		case xpath.Descendant, xpath.DescendantOrSelf:
			nested = len(out) > 1
		}
		cur, out = out, cur
		if len(cur) == 0 {
			break
		}
	}
	b.matchA, b.matchB = cur, out // keep whatever capacity they grew to
	return cur
}

// expand appends the nodes step reaches from src to out, in document
// order, each with src's multiplicity.
func expand(out []Match, src Match, step xpath.Step) []Match {
	switch step.Axis {
	case xpath.Self:
		if matchesNode(src.Node, step.Test) {
			out = append(out, src)
		}
	case xpath.Child:
		for c := src.Node.FirstChild; c != nil; c = c.NextSib {
			if matchesNode(c, step.Test) {
				out = append(out, Match{Node: c, Count: src.Count})
				if step.FirstOnly {
					break
				}
			}
		}
	case xpath.Descendant, xpath.DescendantOrSelf:
		// With FirstOnly, only the first match per source is reported.
		n := src.Node
		if step.Axis == xpath.Descendant {
			n = docOrderSuccessor(src.Node, n)
		}
		for ; n != nil; n = docOrderSuccessor(src.Node, n) {
			if matchesNode(n, step.Test) {
				out = append(out, Match{Node: n, Count: src.Count})
				if step.FirstOnly {
					break
				}
			}
		}
	default:
		panic("buffer: unsupported axis " + step.Axis.String())
	}
	return out
}

// normalize rewrites ms in place so that every node appears once, with
// its counts added up, in document order. It parks the running count on
// the node itself, then walks base's subtree — every match lies in it —
// and collects the marked nodes as they come by, clearing the marks.
func normalize(base *Node, ms []Match) []Match {
	distinct := 0
	for _, m := range ms {
		if !m.Node.marked {
			m.Node.marked = true
			m.Node.markCount = 0
			distinct++
		}
		m.Node.markCount += int32(m.Count)
	}
	ms = ms[:0]
	for n := base; distinct > 0; n = docOrderSuccessor(base, n) {
		if n.marked {
			n.marked = false
			ms = append(ms, Match{Node: n, Count: int(n.markCount)})
			distinct--
		}
	}
	return ms
}

func matchesNode(n *Node, test xpath.Test) bool {
	switch n.Kind {
	case KindElement:
		return test.MatchesElement(n.Name)
	case KindText:
		return test.MatchesText()
	case KindRoot:
		// The virtual root is matched only by node() via self /
		// descendant-or-self (role r1's target).
		return test.Kind == xpath.TestNode
	}
	return false
}

// SelectDocOrder evaluates path relative to base and returns the
// distinct matched nodes in document order, in a slice the caller owns
// — for the holder that keeps the list across further evaluations.
func (b *Buffer) SelectDocOrder(base *Node, path xpath.Path) []*Node {
	matches := b.Matches(base, path)
	nodes := make([]*Node, len(matches))
	for i, m := range matches {
		nodes[i] = m.Node
	}
	return nodes
}

// Exists reports whether path has at least one match from base right
// now, short-circuiting at the first hit. The engine calls this once
// per processed token while blocked on an existence condition, so it
// must not materialize full match sets. (The caller decides whether
// "no match yet" is final by checking whether base's subtree is fully
// read.)
func Exists(base *Node, path xpath.Path) bool {
	base.assertLive()
	return existsFrom(base, path.Steps)
}

func existsFrom(n *Node, steps []xpath.Step) bool {
	if len(steps) == 0 {
		return true
	}
	step := steps[0]
	rest := steps[1:]
	switch step.Axis {
	case xpath.Self:
		return matchesNode(n, step.Test) && existsFrom(n, rest)
	case xpath.Child:
		for c := n.FirstChild; c != nil; c = c.NextSib {
			if matchesNode(c, step.Test) {
				if existsFrom(c, rest) {
					return true
				}
				if step.FirstOnly {
					return false // only the first witness counts
				}
			}
		}
		return false
	case xpath.Descendant, xpath.DescendantOrSelf:
		m := n
		if step.Axis == xpath.Descendant {
			m = docOrderSuccessor(n, m)
		}
		for ; m != nil; m = docOrderSuccessor(n, m) {
			if matchesNode(m, step.Test) {
				if existsFrom(m, rest) {
					return true
				}
				if step.FirstOnly {
					return false
				}
			}
		}
		return false
	default:
		panic("buffer: unsupported axis in Exists")
	}
}

// NextMatchingChild returns the first child of parent after cur (or the
// very first child if cur is nil) that satisfies test. It is the
// iteration step of child-axis for-loops.
func NextMatchingChild(parent, cur *Node, test xpath.Test) *Node {
	parent.assertLive()
	c := parent.FirstChild
	if cur != nil {
		cur.assertLive()
		c = cur.NextSib
	}
	for ; c != nil; c = c.NextSib {
		if matchesNode(c, test) {
			return c
		}
	}
	return nil
}

// NextMatchingDescendant returns the next node after cur in the
// document-order traversal of base's subtree that satisfies test
// (excluding base itself unless includeSelf). cur == nil starts the
// iteration. It is the iteration step of descendant-axis for-loops.
func NextMatchingDescendant(base, cur *Node, test xpath.Test, includeSelf bool) *Node {
	base.assertLive()
	n := cur
	if n == nil {
		if includeSelf && matchesNode(base, test) {
			return base
		}
		n = base
		// fall through to successor scan starting at base's first child
	} else {
		cur.assertLive()
	}
	for {
		n = docOrderSuccessor(base, n)
		if n == nil {
			return nil
		}
		if matchesNode(n, test) {
			return n
		}
	}
}

// docOrderSuccessor returns the node following n in the document-order
// traversal of base's subtree, or nil when the subtree is exhausted.
func docOrderSuccessor(base, n *Node) *Node {
	if n.FirstChild != nil {
		return n.FirstChild
	}
	for n != nil && n != base {
		if n.NextSib != nil {
			return n.NextSib
		}
		n = n.Parent
	}
	return nil
}
