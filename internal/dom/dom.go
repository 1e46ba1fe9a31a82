// Package dom is the full-buffering reference engine of the paper's
// Figure 5 comparison: it parses the complete input into an in-memory
// tree before any evaluation, the strategy of the non-streaming systems
// the paper compares against (Galax, Saxon, QizX; MonetDB with forced
// reloads). The figure's other reference, static projection without
// dynamic buffer minimization, is the streaming engine with
// engine.Config.DisableGC.
//
// Run evaluates the same normalized query with the same value semantics
// as the streaming engine, so outputs are byte-identical, which makes
// it the oracle of the differential tests. It shares no evaluation code
// with the streaming engine, on purpose, and reads any event.Source, so
// it knows no input format.
package dom

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gcx/internal/buffer"
	"gcx/internal/event"
	"gcx/internal/xpath"
)

// NodeKind discriminates DOM nodes.
type NodeKind uint8

const (
	// Root is the virtual document root.
	Root NodeKind = iota
	// Element is an element node.
	Element
	// Text is a character-data node.
	Text
)

// Node is a DOM node with materialized children.
type Node struct {
	Kind     NodeKind
	Name     string
	Attrs    []event.Attr
	Text     string
	Parent   *Node
	Children []*Node
}

// Document is a fully parsed input.
type Document struct {
	Root *Node
	// Nodes is the total number of element and text nodes (the memory
	// footprint of full buffering, in the paper's node metric).
	Nodes int64
	// Bytes estimates the resident size, comparable to the buffer
	// engine's estimate.
	Bytes int64
	// Tokens is the number of tokens parsed.
	Tokens int64
}

// ParseSource reads an entire event stream into a Document under a
// node budget: the full-buffering engine's population is the whole
// document, so a document growing past maxNodes element and text nodes
// aborts the parse with an error wrapping buffer.ErrBudget instead of
// buffering the rest. maxNodes 0 means unlimited. Every token is kept,
// so text from a volatile source is cloned. The caller keeps ownership
// of tz and releases it.
func ParseSource(ctx context.Context, tz event.Source, maxNodes int64) (*Document, error) {
	tz.SetContext(ctx)
	volatile := tz.Volatile()
	root := &Node{Kind: Root}
	doc := &Document{Root: root}
	cur := root
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case event.StartElement:
			n := &Node{Kind: Element, Name: tok.Name, Attrs: tok.Attrs, Parent: cur}
			cur.Children = append(cur.Children, n)
			cur = n
			doc.Nodes++
			doc.Bytes += 128 + int64(len(tok.Name))
			for _, a := range tok.Attrs {
				doc.Bytes += int64(len(a.Name) + len(a.Value) + 32)
			}
		case event.EndElement:
			cur = cur.Parent
		case event.Text:
			if volatile {
				tok = tok.Clone()
			}
			n := &Node{Kind: Text, Text: tok.Text, Parent: cur}
			cur.Children = append(cur.Children, n)
			doc.Nodes++
			doc.Bytes += 128 + int64(len(tok.Text))
		}
		if maxNodes > 0 && doc.Nodes > maxNodes {
			return nil, fmt.Errorf("%w: document holds %d nodes, budget %d (full-buffering engine)",
				buffer.ErrBudget, doc.Nodes, maxNodes)
		}
	}
	doc.Tokens = tz.TokenCount()
	return doc, nil
}

// Attr returns the value of the named attribute.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// StringValue returns the concatenated text of the subtree.
func (n *Node) StringValue() string {
	if n.Kind == Text {
		return n.Text
	}
	var b strings.Builder
	var rec func(m *Node)
	rec = func(m *Node) {
		if m.Kind == Text {
			b.WriteString(m.Text)
			return
		}
		for _, c := range m.Children {
			rec(c)
		}
	}
	rec(n)
	return b.String()
}

func matches(n *Node, test xpath.Test) bool {
	switch n.Kind {
	case Element:
		return test.MatchesElement(n.Name)
	case Text:
		return test.MatchesText()
	case Root:
		return test.Kind == xpath.TestNode
	}
	return false
}

// Select evaluates a path from base, returning distinct nodes in
// document order (node-set semantics; attribute steps are rejected —
// callers handle attributes themselves, as in the buffer engine).
func Select(base *Node, path xpath.Path) []*Node {
	if path.EndsWithAttribute() {
		panic("dom: attribute step in Select")
	}
	current := []*Node{base}
	for _, step := range path.Steps {
		seen := map[*Node]bool{}
		var next []*Node
		add := func(n *Node) {
			if !seen[n] {
				seen[n] = true
				next = append(next, n)
			}
		}
		for _, src := range current {
			switch step.Axis {
			case xpath.Self:
				if matches(src, step.Test) {
					add(src)
				}
			case xpath.Child:
				for _, c := range src.Children {
					if matches(c, step.Test) {
						add(c)
						if step.FirstOnly {
							break
						}
					}
				}
			case xpath.Descendant, xpath.DescendantOrSelf:
				includeSelf := step.Axis == xpath.DescendantOrSelf
				found := false
				var rec func(m *Node, self bool)
				rec = func(m *Node, self bool) {
					if step.FirstOnly && found {
						return
					}
					if self && matches(m, step.Test) {
						add(m)
						if step.FirstOnly {
							found = true
							return
						}
					}
					for _, c := range m.Children {
						rec(c, true)
					}
				}
				found = false
				rec(src, includeSelf)
			}
		}
		// restore document order across sources (nested descendant
		// sources can interleave); do a stable re-sort by tree position
		current = docOrder(base, next)
	}
	return current
}

// docOrder filters base's subtree in document order, keeping nodes in
// the set. base itself is included when present in the set.
func docOrder(base *Node, nodes []*Node) []*Node {
	if len(nodes) <= 1 {
		return nodes
	}
	set := make(map[*Node]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	out := make([]*Node, 0, len(nodes))
	var rec func(n *Node)
	rec = func(n *Node) {
		if set[n] {
			out = append(out, n)
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(base)
	return out
}

// Serialize writes the subtree of n.
func Serialize(n *Node, s event.Sink) {
	switch n.Kind {
	case Text:
		s.Text(n.Text)
	case Element:
		s.StartElement(n.Name, n.Attrs)
		for _, c := range n.Children {
			Serialize(c, s)
		}
		s.EndElement(n.Name)
	case Root:
		for _, c := range n.Children {
			Serialize(c, s)
		}
	}
}
