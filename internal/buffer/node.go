// Package buffer implements the GCX buffer manager: a tree of buffered
// XML nodes annotated with multisets of roles, purged by active garbage
// collection (paper §2).
//
// Invariants maintained here (and property-tested):
//
//   - every node's subtreeWeight equals the sum of role instances plus
//     pins in its subtree (including itself);
//   - a node is unlinked ("purged") as soon as its subtreeWeight reaches
//     zero — deletions take effect immediately, mirroring the paper's
//     reliance on C++ manual memory management;
//   - role instances assigned during projection equal role instances
//     removed by signOffs when evaluation ends (the balance property).
package buffer

import (
	"fmt"
	"sort"
	"strings"

	"gcx/internal/event"
)

// NodeKind discriminates buffered nodes.
type NodeKind uint8

const (
	// KindRoot is the virtual document root (the paper's role r1 target).
	KindRoot NodeKind = iota
	// KindElement is an element node.
	KindElement
	// KindText is a character-data node.
	KindText
)

// roleEntry is one element of a node's role multiset: count instances
// of role id.
type roleEntry struct {
	id    int32
	count int32
}

// inlineRoles is the number of distinct roles a node stores without
// allocating. Over the XMark and NDJSON catalogs 97 % of buffered nodes
// carry at most two distinct roles, and one query alone (Q20) ever
// exceeds that (DESIGN.md §13 has the histogram).
const inlineRoles = 2

// Node is a buffered XML node. Children form a doubly linked list so
// that purging is O(1) pointer surgery.
type Node struct {
	Kind NodeKind
	// Closed is set when the node's end tag has been processed (text
	// nodes are born closed).
	Closed bool
	// unlinked marks a purged node — every node of a purged subtree, so
	// stale references detect the purge without walking a parent chain.
	unlinked bool
	// marked and markCount are evaluator scratch: normalize parks a
	// node's aggregated derivation count here while it re-establishes
	// document order, and clears the mark before it returns.
	marked bool
	// gen is the node's generation: it advances every time the struct
	// is released for reuse, so a holder that remembered it (Handle) can
	// tell the node it referenced from a later tenant of the same memory.
	gen uint32

	Name  string       // element name (KindElement)
	Attrs []event.Attr // attributes ride along with their element
	Text  string       // character data (KindText)

	Parent     *Node
	FirstChild *Node
	LastChild  *Node
	PrevSib    *Node
	NextSib    *Node

	// roles is the role multiset, one entry per distinct role. It starts
	// out backed by inline, so appending allocates only for the rare
	// node with more than inlineRoles distinct roles. Nodes live in
	// arena slabs and are never copied, which keeps the self-reference
	// valid.
	roles  []roleEntry
	inline [inlineRoles]roleEntry

	// subtreeWeight is the number of role instances plus pins in this
	// node's subtree, including the node itself. Zero means the subtree
	// is irrelevant to the remaining evaluation and is purged.
	subtreeWeight int64

	// subtreeNodes is the number of buffered element and text nodes in
	// this subtree including the node itself (the virtual root does not
	// count itself).
	subtreeNodes int64

	// bytes is the estimated resident size of this node alone (set at
	// link time; see nodeBytes).
	bytes int64

	// pins counts temporary protections: one while the node is open
	// (its close tag has not arrived) and one per evaluator reference
	// (current loop binding). Pins contribute to subtreeWeight.
	pins int32

	markCount int32
}

// RoleCount returns the number of instances of role on the node.
func (n *Node) RoleCount(role int) int {
	for _, e := range n.roles {
		if int(e.id) == role {
			return int(e.count)
		}
	}
	return 0
}

// RoleTotal returns the total number of role instances on the node
// itself (excluding pins and descendants).
func (n *Node) RoleTotal() int {
	total := 0
	for _, e := range n.roles {
		total += int(e.count)
	}
	return total
}

// Roles returns the role ids present on this node in ascending order.
func (n *Node) Roles() []int {
	if len(n.roles) == 0 {
		return nil
	}
	ids := make([]int, len(n.roles))
	for i, e := range n.roles {
		ids[i] = int(e.id)
	}
	sort.Ints(ids)
	return ids
}

// addRole adds one instance of role to the multiset.
func (n *Node) addRole(role int) {
	for i := range n.roles {
		if int(n.roles[i].id) == role {
			n.roles[i].count++
			return
		}
	}
	if n.roles == nil {
		n.roles = n.inline[:0]
	}
	n.roles = append(n.roles, roleEntry{id: int32(role), count: 1})
}

// dropRole removes count instances of role and reports whether the node
// carried that many.
func (n *Node) dropRole(role, count int) bool {
	for i := range n.roles {
		e := &n.roles[i]
		if int(e.id) != role {
			continue
		}
		if int(e.count) < count {
			return false
		}
		e.count -= int32(count)
		if e.count == 0 {
			last := len(n.roles) - 1
			n.roles[i] = n.roles[last]
			n.roles = n.roles[:last]
		}
		return true
	}
	return false
}

// SubtreeWeight exposes the subtree role+pin total (for tests).
func (n *Node) SubtreeWeight() int64 { return n.subtreeWeight }

// SubtreeNodes exposes the buffered-node count of the subtree.
func (n *Node) SubtreeNodes() int64 { return n.subtreeNodes }

// Pins exposes the pin count (for tests).
func (n *Node) Pins() int { return int(n.pins) }

// InBuffer reports whether the node is still linked into the buffer.
// A purge marks every node of the purged subtree, so no parent walk is
// needed; once the struct has been handed out again it reports on its
// new tenant (hold a Handle to tell the two apart).
func (n *Node) InBuffer() bool { return !n.unlinked }

// Attr returns the value of the named attribute.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// StringValue returns the concatenated text of the subtree (the XPath
// string value of an element, or the text of a text node).
func (n *Node) StringValue() string {
	n.assertLive()
	if n.Kind == KindText {
		return n.Text
	}
	// The common shapes — an empty element, <amount>12.50</amount> —
	// need no builder.
	switch c := n.FirstChild; {
	case c == nil:
		return ""
	case c == n.LastChild && c.Kind == KindText:
		return c.Text
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == KindText {
		b.WriteString(n.Text)
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSib {
		c.appendText(b)
	}
}

// label renders the node for dumps: name{r2,r5}.
func (n *Node) label(roleName func(int) string) string {
	var b strings.Builder
	switch n.Kind {
	case KindRoot:
		b.WriteString("/")
	case KindElement:
		b.WriteString(n.Name)
	case KindText:
		fmt.Fprintf(&b, "%q", n.Text)
	}
	ids := n.Roles()
	if len(ids) > 0 {
		b.WriteString("{")
		for i, id := range ids {
			if i > 0 {
				b.WriteString(",")
			}
			name := fmt.Sprintf("r%d", id+1)
			if roleName != nil {
				name = roleName(id)
			}
			b.WriteString(name)
			if c := n.RoleCount(id); c > 1 {
				fmt.Fprintf(&b, "×%d", c)
			}
		}
		b.WriteString("}")
	}
	return b.String()
}
