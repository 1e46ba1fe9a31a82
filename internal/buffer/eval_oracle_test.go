package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"gcx/internal/xpath"
)

// The oracle is the evaluator this package used before path evaluation
// moved onto the buffer's scratch slices: one map per step to aggregate
// derivation counts, recursive walkers, and a second whole-subtree walk
// with a set to restore document order. It is slow and obviously
// right, which is what a reference is for.

func oracleMatches(base *Node, path xpath.Path) []Match {
	cur := []Match{{Node: base, Count: 1}}
	for _, step := range path.Steps {
		cur = oracleStep(cur, step)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func oracleStep(sources []Match, step xpath.Step) []Match {
	var out []Match
	idx := make(map[*Node]int)
	add := func(n *Node, count int) {
		if i, ok := idx[n]; ok {
			out[i].Count += count
			return
		}
		idx[n] = len(out)
		out = append(out, Match{Node: n, Count: count})
	}
	for _, src := range sources {
		switch step.Axis {
		case xpath.Self:
			if matchesNode(src.Node, step.Test) {
				add(src.Node, src.Count)
			}
		case xpath.Child:
			for c := src.Node.FirstChild; c != nil; c = c.NextSib {
				if matchesNode(c, step.Test) {
					add(c, src.Count)
					if step.FirstOnly {
						break
					}
				}
			}
		case xpath.Descendant:
			oracleWalk(src.Node, false, step, src.Count, add)
		case xpath.DescendantOrSelf:
			oracleWalk(src.Node, true, step, src.Count, add)
		default:
			panic("buffer: unsupported axis " + step.Axis.String())
		}
	}
	return out
}

func oracleWalk(n *Node, includeSelf bool, step xpath.Step, count int, add func(*Node, int)) {
	var rec func(m *Node, self bool) bool
	rec = func(m *Node, self bool) bool {
		if self && matchesNode(m, step.Test) {
			add(m, count)
			if step.FirstOnly {
				return true
			}
		}
		for c := m.FirstChild; c != nil; c = c.NextSib {
			if rec(c, true) {
				return true
			}
		}
		return false
	}
	rec(n, includeSelf)
}

func oracleDocOrder(base *Node, path xpath.Path) []*Node {
	matches := oracleMatches(base, path)
	set := make(map[*Node]bool, len(matches))
	for _, m := range matches {
		set[m.Node] = true
	}
	var out []*Node
	var rec func(n *Node)
	rec = func(n *Node) {
		if set[n] {
			out = append(out, n)
		}
		for c := n.FirstChild; c != nil; c = c.NextSib {
			rec(c)
		}
	}
	rec(base)
	return out
}

// randomTree buffers a random closed tree under b.Root and returns all
// of its nodes (the root included) in document order. Every node
// carries role 0 so nothing is purged. Names repeat along root-to-leaf
// chains, so descendant steps routinely produce nested sources.
func randomTree(b *Buffer, rng *rand.Rand) []*Node {
	names := []string{"a", "b", "c"}
	nodes := []*Node{b.Root}
	var grow func(parent *Node, depth int)
	grow = func(parent *Node, depth int) {
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if rng.Intn(5) == 0 {
				t := b.AppendText(parent, "t")
				b.AssignRole(t, 0)
				nodes = append(nodes, t)
				continue
			}
			e := b.AppendElement(parent, names[rng.Intn(len(names))], nil)
			b.AssignRole(e, 0)
			nodes = append(nodes, e)
			if depth < 5 {
				grow(e, depth+1)
			}
			b.CloseNode(e)
		}
	}
	grow(b.Root, 0)
	return nodes
}

func randomPath(rng *rand.Rand) xpath.Path {
	axes := []xpath.Axis{xpath.Child, xpath.Child, xpath.Descendant, xpath.DescendantOrSelf, xpath.Self}
	tests := []xpath.Test{
		{Kind: xpath.TestName, Name: "a"},
		{Kind: xpath.TestName, Name: "b"},
		{Kind: xpath.TestName, Name: "c"},
		{Kind: xpath.TestWildcard},
		{Kind: xpath.TestNode},
		{Kind: xpath.TestText},
	}
	var p xpath.Path
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		p.Steps = append(p.Steps, xpath.Step{
			Axis:      axes[rng.Intn(len(axes))],
			Test:      tests[rng.Intn(len(tests))],
			FirstOnly: rng.Intn(6) == 0,
		})
	}
	return p
}

// TestEvaluatorAgainstOracle holds the scratch-based evaluator to the
// map-based one on random trees and paths: the same (node, count)
// multiset, the same document order, the same existence verdict and
// the same sign-off totals.
func TestEvaluatorAgainstOracle(t *testing.T) {
	fixups := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		nodes := randomTree(b, rng)
		for i := 0; i < 40; i++ {
			base := nodes[rng.Intn(len(nodes))]
			path := randomPath(rng)
			where := fmt.Sprintf("seed %d, base %s, path %s\n%s", seed, base.label(nil), path, b.Dump(nil))

			want := map[*Node]int{}
			for _, m := range oracleMatches(base, path) {
				want[m.Node] = m.Count
			}
			order := oracleDocOrder(base, path)

			got := b.Matches(base, path)
			if len(got) != len(want) {
				t.Fatalf("%d distinct matches, oracle %d\n%s", len(got), len(want), where)
			}
			total := 0
			for i, m := range got {
				if want[m.Node] != m.Count {
					t.Fatalf("match %d (%s): count %d, oracle %d\n%s", i, m.Node.label(nil), m.Count, want[m.Node], where)
				}
				if order[i] != m.Node {
					t.Fatalf("match %d (%s) is out of document order\n%s", i, m.Node.label(nil), where)
				}
				if m.Count > 1 {
					fixups++
				}
				total += m.Count
			}
			if Exists(base, path) != (len(want) > 0) {
				t.Fatalf("Exists = %v, oracle has %d matches\n%s", !(len(want) > 0), len(want), where)
			}

			// Sign-off: hand every match exactly the instances the
			// oracle says the path derives, then remove them in one go.
			const role = 1
			for n, c := range want {
				for ; c > 0; c-- {
					b.AssignRole(n, role)
				}
			}
			if removed := b.SignOffNow(base, path, role); removed != total {
				t.Fatalf("SignOffNow removed %d, oracle %d\n%s", removed, total, where)
			}
			if b.AssignedTotal(role) != b.RemovedTotal(role) {
				t.Fatalf("role %d: assigned %d, removed %d\n%s", role, b.AssignedTotal(role), b.RemovedTotal(role), where)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("%v\n%s", err, where)
			}
			for _, n := range nodes {
				if n.marked {
					t.Fatalf("node %s left marked\n%s", n.label(nil), where)
				}
			}
		}
	}
	if fixups == 0 {
		t.Fatal("no path reached a node twice: the generator no longer exercises normalize")
	}
}

// permutations calls fn with every ordering of 0..n-1.
func permutations(n int, fn func([]int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(perm)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// TestRoleMultisetAcrossInlineCapacity drives a node's role multiset
// from empty through the inline entries into the overflow slice and
// back, with multiplicities above one, removing in every order.
func TestRoleMultisetAcrossInlineCapacity(t *testing.T) {
	for distinct := 1; distinct <= inlineRoles+3; distinct++ {
		permutations(distinct, func(order []int) {
			b := New()
			x := b.AppendElement(b.Root, "x", nil) // stays open: the pin keeps it
			check := func(step string) {
				t.Helper()
				if err := b.CheckInvariants(); err != nil {
					t.Fatalf("%d roles, removal order %v, %s: %v", distinct, order, step, err)
				}
			}
			want := map[int]int{}
			for mult := 1; mult <= 3; mult++ {
				for role := 0; role < distinct; role++ {
					if role%3 >= mult {
						continue // role r ends up with 3 - r%3 instances
					}
					b.AssignRole(x, 10+role)
					want[10+role]++
					check("assign")
				}
			}
			verify := func(step string) {
				t.Helper()
				total := 0
				for role, c := range want {
					if got := x.RoleCount(role); got != c {
						t.Fatalf("%d roles, removal order %v, %s: RoleCount(%d) = %d, want %d", distinct, order, step, role, got, c)
					}
					total += c
				}
				if x.RoleTotal() != total || len(x.Roles()) != len(want) {
					t.Fatalf("%d roles, removal order %v, %s: total %d over %v, want %d over %d roles",
						distinct, order, step, x.RoleTotal(), x.Roles(), total, len(want))
				}
			}
			verify("after assignment")
			for _, i := range order {
				role := 10 + i
				if want[role] > 1 { // a partial removal first
					b.RemoveRole(x, role, 1)
					want[role]--
					check("partial remove")
					verify("partial remove")
				}
				b.RemoveRole(x, role, want[role])
				delete(want, role)
				check("remove")
				verify("remove")
			}
			if !x.InBuffer() {
				t.Fatal("open node purged")
			}
			b.CloseNode(x)
			if x.InBuffer() || b.CurrentNodes != 0 {
				t.Fatal("role-less closed node must be purged")
			}
			check("close")
			if err := b.CheckBalance(); err != nil {
				t.Fatalf("%d roles, removal order %v: %v", distinct, order, err)
			}
		})
	}
}

// TestPurgedNodesAreRecycled: a steady append/purge cycle must live in
// the structs of its peak population, not carve new ones.
func TestPurgedNodesAreRecycled(t *testing.T) {
	b := New()
	for i := 0; i < 10*slabSize; i++ {
		e := b.AppendElement(b.Root, "e", nil)
		b.AssignRole(e, 0)
		txt := b.AppendText(e, "x")
		b.AssignRole(txt, 0)
		b.CloseNode(e)
		b.RemoveRole(txt, 0, 1)
		b.RemoveRole(e, 0, 1)
	}
	if len(b.slabs) != 1 || b.slabUsed != 2 {
		t.Fatalf("%d slabs, %d nodes carved for a peak of 2 nodes", len(b.slabs), b.slabUsed)
	}
	if b.TotalPurged != 20*slabSize || b.CurrentNodes != 0 {
		t.Fatalf("purged %d, left %d", b.TotalPurged, b.CurrentNodes)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestStaleReferencesFailLoudly pins the poison check down: under go
// test a purged node is refused by every entry point, and a handle
// notices the purge even after the struct serves as another node.
func TestStaleReferencesFailLoudly(t *testing.T) {
	b := New()
	x := b.AppendElement(b.Root, "x", nil)
	h := Hold(x)
	if !h.Live() || h.Node() != x {
		t.Fatal("fresh handle must be live")
	}
	b.CloseNode(x) // role-less: purged
	if h.Live() {
		t.Fatal("handle still live after the purge")
	}
	mustPanic(t, "Handle.Node on a purged node", func() { h.Node() })
	mustPanic(t, "Pin of a purged node", func() { b.Pin(x) })
	mustPanic(t, "AssignRole on a purged node", func() { b.AssignRole(x, 0) })
	mustPanic(t, "AppendText under a purged node", func() { b.AppendText(x, "t") })
	mustPanic(t, "Matches from a purged node", func() { b.Matches(x, xpath.Path{}) })
	mustPanic(t, "Serialize of a purged node", func() { Serialize(x, nil) })

	y := b.AppendElement(b.Root, "y", nil)
	if y != x {
		t.Fatal("the purged struct should have been handed out again")
	}
	if h.Live() {
		t.Fatal("handle must not adopt the struct's next tenant")
	}
	mustPanic(t, "Handle.Node on a recycled node", func() { h.Node() })
	if !Hold(y).Live() || (Handle{}).Live() || (Handle{}).Node() != nil {
		t.Fatal("handle basics")
	}
}

// TestPendingSignOffOnPurgedBase: a sign-off queued on an open base
// that matches nothing must not run against whatever node reuses the
// base's struct after the base is closed and purged.
func TestPendingSignOffOnPurgedBase(t *testing.T) {
	b := New()
	x := b.AppendElement(b.Root, "x", nil)
	b.QueueSignOff(x, xpath.Path{Steps: []xpath.Step{xpath.ChildStep("none")}}, 7)
	b.CloseNode(x) // no roles: purged with the sign-off still queued
	y := b.AppendElement(b.Root, "none-parent", nil)
	c := b.AppendElement(y, "none", nil)
	b.AssignRole(c, 7)
	b.CloseNode(c)
	b.CloseNode(y)
	if y != x {
		t.Fatal("test premise: y reuses x's struct")
	}
	if n := b.DrainPending(); n != 0 {
		t.Fatalf("drained %d sign-offs against a recycled base", n)
	}
	if b.PendingCount() != 0 || c.RoleCount(7) != 1 {
		t.Fatalf("pending %d, role count %d: stale sign-off kept or executed", b.PendingCount(), c.RoleCount(7))
	}
}

// resumeTrial buffers a random tree, purges a random set of its nodes,
// buffers a second tree behind it into the recycled structs, and then
// holds Resume and the cursor steps from its result to a document-order
// scan of what is left: from every node of the first tree as a loop's
// last binding, under every ancestor of it still buffered as the loop's
// base, the cursor must land on the last remaining node no later than
// the binding and go on to the first match after it.
func resumeTrial(t testing.TB, rng *rand.Rand) {
	b := New()
	nodes := randomTree(b, rng)
	type orig struct {
		h      Handle
		seq    uint64
		parent int // index in nodes, -1 for the root
	}
	info := make([]orig, len(nodes))
	index := make(map[*Node]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
		info[i] = orig{h: Hold(n), seq: n.Seq(), parent: -1}
		if n.Parent != nil {
			info[i].parent = index[n.Parent]
		}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		if rng.Intn(3) != 0 && info[i].h.Live() {
			b.RemoveRole(nodes[i], 0, 1)
		}
	}
	randomTree(b, rng)
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	tests := []xpath.Test{
		{Kind: xpath.TestName, Name: "a"},
		{Kind: xpath.TestWildcard},
		{Kind: xpath.TestNode},
		{Kind: xpath.TestText},
	}
	// scan lists base's buffered subtree without base, or its children
	// only, in document order.
	scan := func(base *Node, descend bool) []*Node {
		var out []*Node
		var rec func(n *Node)
		rec = func(n *Node) {
			for c := n.FirstChild; c != nil; c = c.NextSib {
				out = append(out, c)
				if descend {
					rec(c)
				}
			}
		}
		rec(base)
		return out
	}
	for i := 1; i < len(nodes); i++ {
		seq := info[i].seq
		for a := info[i].parent; a >= 0; a = info[a].parent {
			if !info[a].h.Live() {
				continue
			}
			base := info[a].h.Node()
			for _, descend := range []bool{false, true} {
				if !descend && a != info[i].parent {
					continue // a child-axis binding is a child of its base
				}
				where := fmt.Sprintf("binding %d (seq %d), base %s, descend %v\n%s", i, seq, base.label(nil), descend, b.Dump(nil))
				want, after := base, []*Node(nil)
				for j, n := range scan(base, descend) {
					if n.Seq() > seq {
						after = scan(base, descend)[j:]
						break
					}
					want = n
				}
				got := Resume(base, seq, descend)
				if got != want {
					t.Fatalf("Resume = %s (seq %d), document-order scan %s (seq %d)\n%s", got.label(nil), got.Seq(), want.label(nil), want.Seq(), where)
				}
				for _, test := range tests {
					var next *Node
					for _, n := range after {
						if matchesNode(n, test) {
							next = n
							break
						}
					}
					if descend {
						for _, self := range []bool{false, true} {
							if n := NextMatchingDescendant(base, got, test, self); n != next {
								t.Fatalf("%v (self %v): cursor went to %p, scan %p\n%s", test, self, n, next, where)
							}
						}
					} else if n := NextMatchingChild(base, got, test); n != next {
						t.Fatalf("%v: cursor went to %p, scan %p\n%s", test, n, next, where)
					}
				}
			}
		}
	}
}

// TestResumeAgainstScan runs resumeTrial over random trees and purge
// sets.
func TestResumeAgainstScan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		resumeTrial(t, rand.New(rand.NewSource(seed)))
	}
}

// FuzzResume is resumeTrial with the fuzzer choosing the tree, the purge
// set and the tree buffered after it.
func FuzzResume(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		resumeTrial(t, rand.New(rand.NewSource(seed)))
	})
}
