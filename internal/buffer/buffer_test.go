package buffer

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gcx/internal/xmltok"
	"gcx/internal/xpath"
)

// buildPaperFig1 reconstructs the buffer of the paper's Figure 1(a):
//
//	bib{r2} → book{r3,r5,r6} → title{r5,r7}, author{r5}
//
// using role ids 1..6 for r2..r7 (r1 is the root role, id 0).
func buildPaperFig1(b *Buffer) (bib, book, title, author *Node) {
	b.AssignRole(b.Root, 0) // r1
	bib = b.AppendElement(b.Root, "bib", nil)
	b.AssignRole(bib, 1) // r2
	book = b.AppendElement(bib, "book", nil)
	b.AssignRole(book, 2) // r3
	b.AssignRole(book, 4) // r5
	b.AssignRole(book, 5) // r6
	title = b.AppendElement(book, "title", nil)
	b.AssignRole(title, 4) // r5
	b.AssignRole(title, 6) // r7
	b.CloseNode(title)
	author = b.AppendElement(book, "author", nil)
	b.AssignRole(author, 4) // r5
	b.CloseNode(author)
	b.CloseNode(book)
	return bib, book, title, author
}

func mustInvariants(t *testing.T, b *Buffer) {
	t.Helper()
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v\n%s", err, b.Dump(nil))
	}
}

// TestPaperFigure1 walks the exact garbage-collection scenario of the
// paper's Figure 1: after the first for-loop iteration processes the
// book node, sign-offs for r3, r4, r5 leave book{r6} and title{r7}
// buffered; author is purged.
func TestPaperFigure1(t *testing.T) {
	b := New()
	bib, book, title, author := buildPaperFig1(b)
	mustInvariants(t, b)
	if b.CurrentNodes != 4 {
		t.Fatalf("CurrentNodes = %d, want 4", b.CurrentNodes)
	}

	// Figure 1(b): executing the signOff commands of the first loop.
	// signOff($x, r3); signOff($x/price[1], r4); signOff($x/d-o-s, r5).
	b.SignOffNow(book, xpath.Path{}, 2) // r3 on $x itself
	pricePath := xpath.Path{Steps: []xpath.Step{{
		Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestName, Name: "price"}, FirstOnly: true}}}
	if removed := b.SignOffNow(book, pricePath, 3); removed != 0 {
		t.Fatalf("removed %d instances of r4, want 0 (no price child)", removed)
	}
	dos := xpath.Path{Steps: []xpath.Step{xpath.DescendantOrSelfNodeStep()}}
	if removed := b.SignOffNow(book, dos, 4); removed != 3 {
		t.Fatalf("removed %d instances of r5, want 3 (book, title, author)", removed)
	}
	mustInvariants(t, b)

	// Figure 1(c): author has lost all roles and is purged; book keeps
	// r6, title keeps r7.
	if author.InBuffer() {
		t.Error("author should have been garbage-collected")
	}
	if !book.InBuffer() || book.RoleCount(5) != 1 {
		t.Error("book{r6} should remain buffered")
	}
	if !title.InBuffer() || title.RoleCount(6) != 1 {
		t.Error("title{r7} should remain buffered")
	}
	if b.CurrentNodes != 3 {
		t.Fatalf("CurrentNodes = %d, want 3 (bib, book, title)", b.CurrentNodes)
	}

	// Second loop: output title, then signOff($b, r6) and
	// signOff($b/title/d-o-s, r7); finally signOff($bib, r2).
	b.SignOffNow(book, xpath.Path{}, 5)
	titleDos := xpath.Path{Steps: []xpath.Step{xpath.ChildStep("title"), xpath.DescendantOrSelfNodeStep()}}
	b.SignOffNow(book, titleDos, 6)
	if book.InBuffer() || title.InBuffer() {
		t.Error("book subtree should be fully purged after second loop")
	}
	b.CloseNode(bib)
	b.SignOffNow(bib, xpath.Path{}, 1)
	if bib.InBuffer() {
		t.Error("bib should be purged after signOff($bib, r2)")
	}
	b.SignOffNow(b.Root, xpath.Path{}, 0)
	if b.CurrentNodes != 0 {
		t.Fatalf("CurrentNodes = %d, want 0 at end", b.CurrentNodes)
	}
	if err := b.CheckBalance(); err != nil {
		t.Fatalf("balance: %v", err)
	}
	mustInvariants(t, b)
}

func TestOpenNodesAreNotPurged(t *testing.T) {
	b := New()
	bib := b.AppendElement(b.Root, "bib", nil)
	book := b.AppendElement(bib, "book", nil)
	// No roles at all: nodes are only protected by their open pins.
	if !book.InBuffer() || !bib.InBuffer() {
		t.Fatal("open nodes must stay buffered")
	}
	b.CloseNode(book)
	if book.InBuffer() {
		t.Fatal("closed role-less node should be purged")
	}
	if !bib.InBuffer() {
		t.Fatal("bib is still open, must stay")
	}
	b.CloseNode(bib)
	if bib.InBuffer() || b.CurrentNodes != 0 {
		t.Fatal("all nodes should be purged after close")
	}
	mustInvariants(t, b)
}

func TestPinPreventsPurge(t *testing.T) {
	b := New()
	x := b.AppendElement(b.Root, "x", nil)
	b.Pin(x)
	b.CloseNode(x)
	if !x.InBuffer() {
		t.Fatal("pinned node purged")
	}
	b.Unpin(x)
	if x.InBuffer() {
		t.Fatal("unpinned role-less node should be purged")
	}
	mustInvariants(t, b)
}

func TestPurgeTakesHighestZeroAncestor(t *testing.T) {
	b := New()
	a := b.AppendElement(b.Root, "a", nil)
	c := b.AppendElement(a, "b", nil)
	d := b.AppendElement(c, "c", nil)
	b.AssignRole(d, 0)
	b.CloseNode(d)
	b.CloseNode(c)
	b.CloseNode(a)
	if b.CurrentNodes != 3 {
		t.Fatalf("CurrentNodes = %d, want 3", b.CurrentNodes)
	}
	// Removing the only role purges the whole chain a/b/c at once.
	b.RemoveRole(d, 0, 1)
	if b.CurrentNodes != 0 {
		t.Fatalf("CurrentNodes = %d, want 0 after cascade purge\n%s", b.CurrentNodes, b.Dump(nil))
	}
	if a.InBuffer() || c.InBuffer() || d.InBuffer() {
		t.Fatal("chain should be fully unlinked")
	}
	mustInvariants(t, b)
}

func TestRoleMultiset(t *testing.T) {
	b := New()
	n := b.AppendElement(b.Root, "n", nil)
	b.AssignRole(n, 3)
	b.AssignRole(n, 3)
	b.AssignRole(n, 7)
	b.CloseNode(n)
	if n.RoleCount(3) != 2 || n.RoleTotal() != 3 {
		t.Fatalf("multiset counts wrong: %v", n.Roles())
	}
	b.RemoveRole(n, 3, 1)
	if !n.InBuffer() || n.RoleCount(3) != 1 {
		t.Fatal("one instance removed, node must stay")
	}
	b.RemoveRole(n, 3, 1)
	if !n.InBuffer() {
		t.Fatal("r8 still present, node must stay")
	}
	b.RemoveRole(n, 7, 1)
	if n.InBuffer() {
		t.Fatal("all roles gone, node must be purged")
	}
	mustInvariants(t, b)
}

func TestRemoveRolePanicsOnUnderflow(t *testing.T) {
	b := New()
	n := b.AppendElement(b.Root, "n", nil)
	b.AssignRole(n, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on role underflow")
		}
	}()
	b.RemoveRole(n, 1, 2)
}

func TestDeferredSignOff(t *testing.T) {
	b := New()
	x := b.AppendElement(b.Root, "x", nil)
	b.AssignRole(x, 0)
	ch := b.AppendElement(x, "c", nil)
	b.AssignRole(ch, 1)
	b.CloseNode(ch)

	// x is still open: the sign-off for role 1 on x/c must defer.
	cPath := xpath.Path{Steps: []xpath.Step{xpath.ChildStep("c")}}
	b.QueueSignOff(x, cPath, 1)
	if b.PendingCount() != 1 {
		t.Fatalf("PendingCount = %d, want 1", b.PendingCount())
	}
	if ch.RoleCount(1) != 1 {
		t.Fatal("deferred sign-off must not remove roles yet")
	}
	if b.DrainPending() != 0 {
		t.Fatal("drain should not execute while x is open")
	}

	// Second c child arrives after the sign-off was issued: it is part
	// of the same iteration's subtree... but with [1]-free child paths
	// every instance is matched at drain time.
	ch2 := b.AppendElement(x, "c", nil)
	b.AssignRole(ch2, 1)
	b.CloseNode(ch2)
	b.CloseNode(x)
	if got := b.DrainPending(); got != 1 {
		t.Fatalf("DrainPending executed %d, want 1", got)
	}
	if ch.InBuffer() || ch2.InBuffer() {
		t.Fatal("both c children should be purged after drain")
	}
	// x keeps role 0.
	if !x.InBuffer() {
		t.Fatal("x still has a role")
	}
	b.SignOffNow(x, xpath.Path{}, 0)
	if err := b.CheckBalance(); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, b)
}

func TestQueueSignOffExecutesImmediatelyWhenClosed(t *testing.T) {
	b := New()
	x := b.AppendElement(b.Root, "x", nil)
	b.AssignRole(x, 0)
	b.CloseNode(x)
	b.QueueSignOff(x, xpath.Path{}, 0)
	if b.PendingCount() != 0 {
		t.Fatal("sign-off on closed subtree must run immediately")
	}
	if x.InBuffer() {
		t.Fatal("x should be purged")
	}
}

func TestDisableGC(t *testing.T) {
	b := New()
	b.DisableGC = true
	x := b.AppendElement(b.Root, "x", nil)
	b.AssignRole(x, 0)
	b.CloseNode(x)
	b.SignOffNow(x, xpath.Path{}, 0)
	if !x.InBuffer() {
		t.Fatal("DisableGC must keep nodes buffered")
	}
	if b.CurrentNodes != 1 {
		t.Fatalf("CurrentNodes = %d, want 1", b.CurrentNodes)
	}
}

func TestMatchesMultiplicityWithDescendants(t *testing.T) {
	// <a><s><s><x/></s></s></a>: path a/descendant::s/descendant-or-self::node()
	// reaches the inner s twice and x twice (via both s derivations).
	b := New()
	a := b.AppendElement(b.Root, "a", nil)
	s1 := b.AppendElement(a, "s", nil)
	s2 := b.AppendElement(s1, "s", nil)
	x := b.AppendElement(s2, "x", nil)
	b.AssignRole(a, 0) // keep everything alive
	b.AssignRole(s1, 0)
	b.AssignRole(s2, 0)
	b.AssignRole(x, 0)
	for _, n := range []*Node{x, s2, s1, a} {
		b.CloseNode(n)
	}
	p := xpath.Path{Steps: []xpath.Step{
		{Axis: xpath.Descendant, Test: xpath.Test{Kind: xpath.TestName, Name: "s"}},
		xpath.DescendantOrSelfNodeStep(),
	}}
	got := map[*Node]int{}
	for _, m := range b.Matches(a, p) {
		got[m.Node] = m.Count
	}
	if got[s1] != 1 || got[s2] != 2 || got[x] != 2 {
		t.Fatalf("multiplicities: s1=%d s2=%d x=%d, want 1/2/2", got[s1], got[s2], got[x])
	}
}

func TestFirstWitnessMatching(t *testing.T) {
	b := New()
	x := b.AppendElement(b.Root, "x", nil)
	b.AssignRole(x, 0)
	p1 := b.AppendElement(x, "p", nil)
	b.AssignRole(p1, 1)
	b.CloseNode(p1)
	p2 := b.AppendElement(x, "p", nil)
	b.AssignRole(p2, 0) // keep alive via other role
	b.CloseNode(p2)
	b.CloseNode(x)
	path := xpath.Path{Steps: []xpath.Step{{
		Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestName, Name: "p"}, FirstOnly: true}}}
	ms := b.Matches(x, path)
	if len(ms) != 1 || ms[0].Node != p1 {
		t.Fatalf("first-witness must match only the first p; got %d matches", len(ms))
	}
}

func TestNextMatchingChildAndDescendant(t *testing.T) {
	b := New()
	bib := b.AppendElement(b.Root, "bib", nil)
	b.AssignRole(bib, 0)
	bk1 := b.AppendElement(bib, "book", nil)
	b.AssignRole(bk1, 0)
	art := b.AppendElement(bib, "article", nil)
	b.AssignRole(art, 0)
	bk2 := b.AppendElement(bib, "book", nil)
	b.AssignRole(bk2, 0)
	test := xpath.Test{Kind: xpath.TestName, Name: "book"}
	if n := NextMatchingChild(bib, nil, test); n != bk1 {
		t.Fatal("first book")
	}
	if n := NextMatchingChild(bib, bk1, test); n != bk2 {
		t.Fatal("second book should skip article")
	}
	if n := NextMatchingChild(bib, bk2, test); n != nil {
		t.Fatal("no third book")
	}
	// descendant iteration sees nested matches in document order
	inner := b.AppendElement(bk1, "book", nil)
	b.AssignRole(inner, 0)
	if n := NextMatchingDescendant(bib, nil, test, false); n != bk1 {
		t.Fatal("descendant iteration start")
	}
	if n := NextMatchingDescendant(bib, bk1, test, false); n != inner {
		t.Fatal("nested book next in doc order")
	}
	if n := NextMatchingDescendant(bib, inner, test, false); n != bk2 {
		t.Fatal("after the nested book, bk2 is the next matching descendant")
	}
	if n := NextMatchingDescendant(bib, bk2, test, false); n != nil {
		t.Fatal("iteration exhausted")
	}
}

func TestStringValue(t *testing.T) {
	b := New()
	n := b.AppendElement(b.Root, "name", nil)
	b.AssignRole(n, 0)
	b.AppendText(n, "John ")
	m := b.AppendElement(n, "last", nil)
	b.AssignRole(m, 0)
	b.AppendText(m, "Doe")
	b.CloseNode(m)
	b.CloseNode(n)
	if got := n.StringValue(); got != "John Doe" {
		t.Fatalf("StringValue = %q", got)
	}
}

func TestSerializeSubtree(t *testing.T) {
	b := New()
	item := b.AppendElement(b.Root, "item", []xmltok.Attr{{Name: "id", Value: "i1"}})
	b.AssignRole(item, 0)
	name := b.AppendElement(item, "name", nil)
	b.AssignRole(name, 0)
	b.AppendText(name, "a<b")
	b.CloseNode(name)
	b.CloseNode(item)
	var out bytes.Buffer
	s := xmltok.NewSerializer(&out)
	Serialize(item, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `<item id="i1"><name>a&lt;b</name></item>`
	if out.String() != want {
		t.Fatalf("got %q, want %q", out.String(), want)
	}
}

func TestDumpShowsRoles(t *testing.T) {
	b := New()
	bib, _, _, _ := buildPaperFig1(b)
	_ = bib
	dump := b.Dump(nil)
	for _, want := range []string{"bib{r2}", "book{r3,r5,r6}", "title{r5,r7}", "author{r5}"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestRandomizedInvariants drives random buffer operations and checks
// structural invariants throughout (property-based).
func TestRandomizedInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := New()
		open := []*Node{b.Root}
		var live []*Node // nodes holding roles we may remove
		roleOf := map[*Node][]int{}
		for op := 0; op < 300; op++ {
			switch r.Intn(5) {
			case 0, 1: // append element
				parent := open[len(open)-1]
				n := b.AppendElement(parent, "n", nil)
				if r.Intn(2) == 0 {
					role := r.Intn(4)
					b.AssignRole(n, role)
					roleOf[n] = append(roleOf[n], role)
					live = append(live, n)
				}
				if r.Intn(3) > 0 {
					open = append(open, n)
				} else {
					b.CloseNode(n)
				}
			case 2: // append text (always roled, per the preprojector contract)
				parent := open[len(open)-1]
				if parent == b.Root {
					continue
				}
				n := b.AppendText(parent, "t")
				role := r.Intn(4)
				b.AssignRole(n, role)
				roleOf[n] = append(roleOf[n], role)
				live = append(live, n)
			case 3: // close deepest
				if len(open) > 1 {
					b.CloseNode(open[len(open)-1])
					open = open[:len(open)-1]
				}
			case 4: // remove one role instance
				if len(live) > 0 {
					i := r.Intn(len(live))
					n := live[i]
					rs := roleOf[n]
					role := rs[len(rs)-1]
					roleOf[n] = rs[:len(rs)-1]
					if len(roleOf[n]) == 0 {
						live = append(live[:i], live[i+1:]...)
					}
					b.RemoveRole(n, role, 1)
				}
			}
			if err := b.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		// close everything and remove remaining roles: buffer must empty
		for len(open) > 1 {
			b.CloseNode(open[len(open)-1])
			open = open[:len(open)-1]
		}
		for _, n := range live {
			for _, role := range roleOf[n] {
				b.RemoveRole(n, role, 1)
			}
		}
		if b.CurrentNodes != 0 {
			t.Logf("seed %d: %d nodes left after full drain\n%s", seed, b.CurrentNodes, b.Dump(nil))
			return false
		}
		return b.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestExistsShortCircuit: Exists agrees with Matches across axis
// shapes, including first-witness semantics.
func TestExistsShortCircuit(t *testing.T) {
	b := New()
	a := b.AppendElement(b.Root, "a", nil)
	b.AssignRole(a, 0)
	for i := 0; i < 3; i++ {
		c := b.AppendElement(a, "c", nil)
		b.AssignRole(c, 0)
		d := b.AppendElement(c, "d", nil)
		b.AssignRole(d, 0)
		b.CloseNode(d)
		b.CloseNode(c)
	}
	b.CloseNode(a)
	paths := []xpath.Path{
		{Steps: []xpath.Step{xpath.ChildStep("c")}},
		{Steps: []xpath.Step{xpath.ChildStep("missing")}},
		{Steps: []xpath.Step{xpath.ChildStep("c"), xpath.ChildStep("d")}},
		{Steps: []xpath.Step{{Axis: xpath.Descendant, Test: xpath.Test{Kind: xpath.TestName, Name: "d"}}}},
		{Steps: []xpath.Step{xpath.DescendantOrSelfNodeStep()}},
		{Steps: []xpath.Step{{Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestName, Name: "c"}, FirstOnly: true}, xpath.ChildStep("d")}},
		{Steps: []xpath.Step{{Axis: xpath.Self, Test: xpath.Test{Kind: xpath.TestName, Name: "a"}}}},
		{Steps: []xpath.Step{{Axis: xpath.Self, Test: xpath.Test{Kind: xpath.TestName, Name: "z"}}}},
	}
	for _, p := range paths {
		want := len(b.Matches(a, p)) > 0
		if got := Exists(a, p); got != want {
			t.Errorf("Exists(%s) = %v, Matches says %v", p, got, want)
		}
	}
}

// TestExistsFirstWitnessSubtlety: with [1], only the first matching
// child may witness the rest of the path.
func TestExistsFirstWitnessSubtlety(t *testing.T) {
	// <x><p/><p><q/></p></x>: p[1]/q must be FALSE (first p has no q).
	b := New()
	x := b.AppendElement(b.Root, "x", nil)
	b.AssignRole(x, 0)
	p1 := b.AppendElement(x, "p", nil)
	b.AssignRole(p1, 0)
	b.CloseNode(p1)
	p2 := b.AppendElement(x, "p", nil)
	b.AssignRole(p2, 0)
	q := b.AppendElement(p2, "q", nil)
	b.AssignRole(q, 0)
	b.CloseNode(q)
	b.CloseNode(p2)
	b.CloseNode(x)
	path := xpath.Path{Steps: []xpath.Step{
		{Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestName, Name: "p"}, FirstOnly: true},
		xpath.ChildStep("q"),
	}}
	if Exists(x, path) {
		t.Fatal("p[1]/q must not exist: the first p has no q")
	}
	if len(b.Matches(x, path)) != 0 {
		t.Fatal("Matches must agree")
	}
}

// TestWatchListsClosedCarriers: with a role watched, CloseNode lists
// each node carrying it as the node closes, in close order, and no
// other node; Reset stops the watch.
func TestWatchListsClosedCarriers(t *testing.T) {
	b := New()
	b.Watch(1)
	r := b.AppendElement(b.Root, "r", nil)
	b.AssignRole(r, 0)
	var tuples []*Node
	for i := 0; i < 3; i++ {
		c := b.AppendElement(r, "c", nil)
		b.AssignRole(c, 1)
		k := b.AppendElement(c, "k", nil)
		b.AssignRole(k, 0)
		b.CloseNode(k)
		b.CloseNode(c)
		tuples = append(tuples, c)
	}
	b.CloseNode(r)
	if len(b.Watched) != len(tuples) {
		t.Fatalf("%d nodes listed, want %d", len(b.Watched), len(tuples))
	}
	for i, h := range b.Watched {
		if h.Node() != tuples[i] {
			t.Fatalf("entry %d is not the %d-th closed carrier", i, i)
		}
	}
	b.Reset()
	c := b.AppendElement(b.Root, "c", nil)
	b.AssignRole(c, 1)
	b.CloseNode(c)
	if len(b.Watched) != 0 {
		t.Fatalf("a reset buffer still watches: %d listed", len(b.Watched))
	}
}

// TestSetHeld: what the run holds outside the tree joins the byte peak
// when it is reported and whenever a node is appended, and counts
// against the node budget both ways, without entering the node counts.
func TestSetHeld(t *testing.T) {
	b := New()
	b.MaxNodes = 3
	a := b.AppendElement(b.Root, "a", nil)
	own := b.CurrentBytes
	b.SetHeld(2, 1000)
	if b.PeakBytes != own+1000 || b.CurrentBytes != own || b.CurrentNodes != 1 || b.PeakNodes != 1 {
		t.Fatalf("after SetHeld: current %d/%d bytes, peak %d bytes, %d nodes", b.CurrentNodes, b.CurrentBytes, b.PeakBytes, b.PeakNodes)
	}
	if b.BudgetErr() != nil {
		t.Fatal("1 buffered + 2 held nodes is within a budget of 3")
	}
	b.SetHeld(2, 0)
	b.AppendElement(a, "c", nil)
	if err := b.BudgetErr(); !errors.Is(err, ErrBudget) {
		t.Fatalf("2 buffered + 2 held nodes against a budget of 3: %v", err)
	}
	if b.PeakBytes != own+1000 {
		t.Errorf("peak %d bytes, want the sampled %d", b.PeakBytes, own+1000)
	}

	b = New()
	b.MaxNodes = 3
	b.AppendElement(b.Root, "a", nil)
	if b.SetHeld(3, 0); !errors.Is(b.BudgetErr(), ErrBudget) {
		t.Error("SetHeld pushing the population past the budget did not trip it")
	}
}

// TestResume walks a loop cursor on past a binding that is gone: the
// cursor continues from the last node still buffered before it, found
// by append ordinal, and reaches the binding the pinned cursor would
// have reached.
func TestResume(t *testing.T) {
	person := xpath.Test{Kind: xpath.TestName, Name: "person"}
	item := xpath.Test{Kind: xpath.TestName, Name: "item"}

	t.Run("child axis, earlier sibling held", func(t *testing.T) {
		b := New()
		people := b.AppendElement(b.Root, "people", nil)
		p1 := b.AppendElement(people, "person", nil)
		b.AssignRole(p1, 1) // another role keeps the first person
		b.CloseNode(p1)
		p2 := b.AppendElement(people, "person", nil)
		seq := p2.Seq()
		b.CloseNode(p2) // the finished binding, role-less: purged
		p3 := b.AppendElement(people, "person", nil)
		if r := Resume(people, seq, false); r != p1 {
			t.Fatalf("resumed at %s, want the held first person", r.label(nil))
		}
		if n := NextMatchingChild(people, Resume(people, seq, false), person); n != p3 {
			t.Fatal("the cursor must go on to the third person")
		}
		b.RemoveRole(p1, 1, 1) // nothing earlier is left
		if r := Resume(people, seq, false); r != people {
			t.Fatalf("resumed at %s, want the base", r.label(nil))
		}
		if n := NextMatchingChild(people, people, person); n != p3 {
			t.Fatal("from the base the cursor starts at the first child")
		}
		mustInvariants(t, b)
	})

	t.Run("descendant axis across a purged ancestor", func(t *testing.T) {
		b := New()
		site := b.AppendElement(b.Root, "site", nil)
		regions := b.AppendElement(site, "regions", nil)
		b.AssignRole(regions, 1)
		africa := b.AppendElement(regions, "africa", nil)
		i1 := b.AppendElement(africa, "item", nil)
		seq := i1.Seq()
		b.CloseNode(i1)
		b.CloseNode(africa) // role-less and closed: purged
		if africa.InBuffer() {
			t.Fatal("test premise: africa is purged")
		}
		asia := b.AppendElement(regions, "asia", nil)
		i2 := b.AppendElement(asia, "item", nil)
		if r := Resume(site, seq, true); r != regions {
			t.Fatalf("resumed at %s, want regions", r.label(nil))
		}
		if n := NextMatchingDescendant(site, Resume(site, seq, true), item, false); n != i2 {
			t.Fatal("the cursor must go on to asia's item")
		}
		mustInvariants(t, b)
	})

	t.Run("descendant-or-self", func(t *testing.T) {
		b := New()
		a := b.AppendElement(b.Root, "a", nil)
		a1 := b.AppendElement(a, "a", nil)
		seq := a1.Seq()
		b.CloseNode(a1)
		a2 := b.AppendElement(a, "a", nil)
		self := xpath.Test{Kind: xpath.TestName, Name: "a"}
		r := Resume(a, seq, true)
		if r != a {
			t.Fatalf("resumed at %s, want the base", r.label(nil))
		}
		if n := NextMatchingDescendant(a, r, self, true); n != a2 {
			t.Fatal("resuming at the base must not bind the base again")
		}
	})

	t.Run("stale handle on a reused struct", func(t *testing.T) {
		b := New()
		people := b.AppendElement(b.Root, "people", nil)
		p1 := b.AppendElement(people, "person", nil)
		h, seq := Hold(p1), p1.Seq()
		b.CloseNode(p1)
		p2 := b.AppendElement(people, "person", nil)
		if p2 != p1 || h.Live() {
			t.Fatal("test premise: the next person reuses the purged struct")
		}
		if p2.Seq() <= seq {
			t.Fatalf("reused struct carries ordinal %d, not after %d", p2.Seq(), seq)
		}
		if n := NextMatchingChild(people, Resume(people, seq, false), person); n != p2 {
			t.Fatal("the cursor must bind the struct's new tenant")
		}
	})
}
