package projection

import (
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/xmltok"
	"gcx/internal/xpath"
)

// paperRoles builds the seven projection paths of the paper's running
// example (§2), in paper order: r1=/, r2=/bib, r3=/bib/*,
// r4=/bib/*/price[1], r5=/bib/*/descendant-or-self::node(),
// r6=/bib/book, r7=/bib/book/title/descendant-or-self::node().
func paperRoles() []xpath.Path {
	bib := xpath.ChildStep("bib")
	star := xpath.WildcardStep()
	price1 := xpath.Step{Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestName, Name: "price"}, FirstOnly: true}
	book := xpath.ChildStep("book")
	title := xpath.ChildStep("title")
	dos := xpath.DescendantOrSelfNodeStep()
	return []xpath.Path{
		{},                               // r1
		{Steps: []xpath.Step{bib}},       // r2
		{Steps: []xpath.Step{bib, star}}, // r3
		{Steps: []xpath.Step{bib, star, price1}},
		{Steps: []xpath.Step{bib, star, dos}},
		{Steps: []xpath.Step{bib, book}},
		{Steps: []xpath.Step{bib, book, title, dos}},
	}
}

func project(t *testing.T, doc string, roles []xpath.Path) *buffer.Buffer {
	t.Helper()
	buf := buffer.New()
	p := New(xmltok.NewTokenizer(strings.NewReader(doc)), buf, roles)
	if err := p.Run(); err != nil {
		t.Fatalf("projection failed: %v", err)
	}
	if err := buf.CheckInvariants(); err != nil {
		t.Fatalf("invariants after projection: %v\n%s", err, buf.Dump(nil))
	}
	return buf
}

// findChild returns the i-th element child named name.
func findChild(n *buffer.Node, name string, idx int) *buffer.Node {
	count := 0
	for c := n.FirstChild; c != nil; c = c.NextSib {
		if c.Kind == buffer.KindElement && c.Name == name {
			if count == idx {
				return c
			}
			count++
		}
	}
	return nil
}

// TestPaperFigure1RoleAssignment reproduces Figure 1(a): projecting
// <bib><book><title/><author/></book> with the example's roles yields
// bib{r2}, book{r3,r5,r6}, title{r5,r7}, author{r5}.
func TestPaperFigure1RoleAssignment(t *testing.T) {
	buf := project(t, `<bib><book><title/><author/></book></bib>`, paperRoles())
	if buf.Root.RoleCount(0) != 1 {
		t.Error("virtual root should carry r1")
	}
	bib := findChild(buf.Root, "bib", 0)
	if bib == nil || bib.RoleCount(1) != 1 || bib.RoleTotal() != 1 {
		t.Fatalf("bib roles wrong: %v", bib.Roles())
	}
	book := findChild(bib, "book", 0)
	if book == nil {
		t.Fatal("book not buffered")
	}
	for _, role := range []int{2, 4, 5} { // r3, r5, r6
		if book.RoleCount(role) != 1 {
			t.Errorf("book missing r%d", role+1)
		}
	}
	if book.RoleTotal() != 3 {
		t.Errorf("book role total = %d, want 3", book.RoleTotal())
	}
	title := findChild(book, "title", 0)
	if title == nil || title.RoleCount(4) != 1 || title.RoleCount(6) != 1 || title.RoleTotal() != 2 {
		t.Fatalf("title roles wrong: %v", title.Roles())
	}
	author := findChild(book, "author", 0)
	if author == nil || author.RoleCount(4) != 1 || author.RoleTotal() != 1 {
		t.Fatalf("author roles wrong: %v", author.Roles())
	}
	// 4 buffered nodes: bib, book, title, author.
	if buf.CurrentNodes != 4 {
		t.Fatalf("CurrentNodes = %d, want 4", buf.CurrentNodes)
	}
}

// TestFirstWitnessOnlyFirstPrice checks r4's [1] predicate: only the
// first price child per /bib/* node receives r4.
func TestFirstWitnessOnlyFirstPrice(t *testing.T) {
	buf := project(t, `<bib><book><price>1</price><price>2</price></book><article><price>3</price></article></bib>`, paperRoles())
	bib := findChild(buf.Root, "bib", 0)
	book := findChild(bib, "book", 0)
	p0 := findChild(book, "price", 0)
	p1 := findChild(book, "price", 1)
	if p0.RoleCount(3) != 1 {
		t.Error("first price must carry r4")
	}
	if p1.RoleCount(3) != 0 {
		t.Error("second price must not carry r4")
	}
	art := findChild(bib, "article", 0)
	ap := findChild(art, "price", 0)
	if ap.RoleCount(3) != 1 {
		t.Error("the [1] latch is per context node: article's price gets r4")
	}
}

// TestUnmatchedNodesNotBuffered: tokens outside all projection paths are
// discarded.
func TestUnmatchedNodesNotBuffered(t *testing.T) {
	roles := []xpath.Path{
		{Steps: []xpath.Step{xpath.ChildStep("site")}},
		{Steps: []xpath.Step{xpath.ChildStep("site"), xpath.ChildStep("people")}},
	}
	buf := project(t, `<site><regions><item/><item/></regions><people/></site>`, roles)
	if buf.TotalAppended != 2 {
		t.Fatalf("TotalAppended = %d, want 2 (site, people)\n%s", buf.TotalAppended, buf.Dump(nil))
	}
	site := findChild(buf.Root, "site", 0)
	if findChild(site, "regions", 0) != nil {
		t.Fatal("regions should not be buffered")
	}
}

// TestSkeletonMaterialization: a deep match forces role-less structural
// ancestors into the buffer, which die with their matched descendants.
func TestSkeletonMaterialization(t *testing.T) {
	roles := []xpath.Path{
		{Steps: []xpath.Step{
			xpath.ChildStep("a"),
			{Axis: xpath.Descendant, Test: xpath.Test{Kind: xpath.TestName, Name: "c"}},
		}},
	}
	buf := project(t, `<a><skel1><skel2><c/></skel2></skel1></a>`, roles)
	a := findChild(buf.Root, "a", 0)
	if a == nil {
		t.Fatal("a not buffered")
	}
	s1 := findChild(a, "skel1", 0)
	if s1 == nil {
		t.Fatal("skeleton ancestor skel1 missing")
	}
	if s1.RoleTotal() != 0 {
		t.Fatal("skeleton must carry no roles")
	}
	s2 := findChild(s1, "skel2", 0)
	c := findChild(s2, "c", 0)
	if c == nil || c.RoleCount(0) != 1 {
		t.Fatal("c must be buffered with the role")
	}
	// Removing c's role purges the whole skeleton chain.
	buf.RemoveRole(c, 0, 1)
	if a.InBuffer() {
		// a itself carried only role-lessness + closedness
		t.Fatal("skeleton chain should be purged with c")
	}
	if buf.CurrentNodes != 0 {
		t.Fatalf("CurrentNodes = %d, want 0", buf.CurrentNodes)
	}
}

// TestDescendantMultiplicity: nested matches yield multiple instances of
// the same role on one node (paper §2).
func TestDescendantMultiplicity(t *testing.T) {
	roles := []xpath.Path{
		{Steps: []xpath.Step{
			{Axis: xpath.Descendant, Test: xpath.Test{Kind: xpath.TestName, Name: "s"}},
			xpath.DescendantOrSelfNodeStep(),
		}},
	}
	buf := project(t, `<doc><s><s><x/></s></s></doc>`, roles)
	doc := findChild(buf.Root, "doc", 0)
	s1 := findChild(doc, "s", 0)
	s2 := findChild(s1, "s", 0)
	x := findChild(s2, "x", 0)
	if s1.RoleCount(0) != 1 {
		t.Errorf("outer s count = %d, want 1", s1.RoleCount(0))
	}
	if s2.RoleCount(0) != 2 {
		t.Errorf("inner s count = %d, want 2 (self + descendant of outer)", s2.RoleCount(0))
	}
	if x.RoleCount(0) != 2 {
		t.Errorf("x count = %d, want 2", x.RoleCount(0))
	}
	// Buffer-side evaluation agrees with projection-side assignment:
	removed := buf.SignOffNow(buf.Root, roles[0], 0)
	if removed != 5 {
		t.Fatalf("sign-off removed %d instances, want 5 (1+2+2)", removed)
	}
	if err := buf.CheckBalance(); err != nil {
		t.Fatal(err)
	}
}

// TestTextProjection: text nodes are buffered only when a final step
// matches them.
func TestTextProjection(t *testing.T) {
	roles := []xpath.Path{
		{Steps: []xpath.Step{xpath.ChildStep("a")}}, // element only
		{Steps: []xpath.Step{xpath.ChildStep("a"), xpath.ChildStep("name"), {Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestText}}}}, // text()
		{Steps: []xpath.Step{xpath.ChildStep("a"), xpath.ChildStep("name")}},
	}
	buf := project(t, `<a>loose<name>kept</name></a>`, roles)
	a := findChild(buf.Root, "a", 0)
	// "loose" is not matched by any path → not buffered.
	for c := a.FirstChild; c != nil; c = c.NextSib {
		if c.Kind == buffer.KindText {
			t.Fatalf("unmatched text %q buffered", c.Text)
		}
	}
	name := findChild(a, "name", 0)
	txt := name.FirstChild
	if txt == nil || txt.Kind != buffer.KindText || txt.Text != "kept" {
		t.Fatal("matched text missing")
	}
	if txt.RoleCount(1) != 1 {
		t.Fatal("text role missing")
	}
}

// TestRootRoleAndKeepAllPath: the keep-all path /descendant-or-self::
// node() (the "no projection" ablation) buffers every node, and the
// virtual root receives the role too — consistently with buffer-side
// evaluation, so the final sign-off balances.
func TestRootRoleAndKeepAllPath(t *testing.T) {
	keepAll := []xpath.Path{{Steps: []xpath.Step{xpath.DescendantOrSelfNodeStep()}}}
	doc := `<a><b>t1</b><c><d/>t2</c></a>`
	buf := project(t, doc, keepAll)
	// nodes: a, b, t1, c, d, t2 = 6
	if buf.CurrentNodes != 6 {
		t.Fatalf("CurrentNodes = %d, want 6\n%s", buf.CurrentNodes, buf.Dump(nil))
	}
	if buf.Root.RoleCount(0) != 1 {
		t.Fatal("root must carry the keep-all role (matched by self part)")
	}
	removed := buf.SignOffNow(buf.Root, keepAll[0], 0)
	if removed != 7 {
		t.Fatalf("removed %d, want 7 (6 nodes + root)", removed)
	}
	if err := buf.CheckBalance(); err != nil {
		t.Fatal(err)
	}
	if buf.CurrentNodes != 0 {
		t.Fatal("buffer should be empty")
	}
}

// TestAttributesTravelWithElements: attributes are stored on buffered
// nodes without needing roles of their own.
func TestAttributesTravelWithElements(t *testing.T) {
	roles := []xpath.Path{{Steps: []xpath.Step{xpath.ChildStep("p")}}}
	buf := project(t, `<p id="p1" income="95000"/>`, roles)
	p := findChild(buf.Root, "p", 0)
	if v, ok := p.Attr("id"); !ok || v != "p1" {
		t.Fatal("attribute id missing")
	}
	if v, ok := p.Attr("income"); !ok || v != "95000" {
		t.Fatal("attribute income missing")
	}
}

// TestBufferPlotShape replays the Fig. 3 document prefix and verifies
// token accounting.
func TestTokenAccounting(t *testing.T) {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < 10; i++ {
		b.WriteString("<book><author/><title/><price/></book>")
	}
	b.WriteString("</bib>")
	buf := buffer.New()
	p := New(xmltok.NewTokenizer(strings.NewReader(b.String())), buf, paperRoles())
	ticks := 0
	p.OnToken = func() { ticks++ }
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 82 || p.TokensProcessed() != 82 {
		t.Fatalf("tokens = %d/%d, want 82", ticks, p.TokensProcessed())
	}
	if !p.EOF() {
		t.Fatal("EOF not reported")
	}
	// every node matched (books match r3/r5/r6, children r5, etc.)
	if buf.CurrentNodes != 41 {
		t.Fatalf("CurrentNodes = %d, want 41", buf.CurrentNodes)
	}
}

// TestStepByStepProcessing: Step processes exactly one token.
func TestStepByStepProcessing(t *testing.T) {
	buf := buffer.New()
	p := New(xmltok.NewTokenizer(strings.NewReader(`<bib><book/></bib>`)), buf, paperRoles())
	counts := []int64{}
	for {
		ok, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		counts = append(counts, buf.CurrentNodes)
	}
	// <bib> → 1 node, <book> → 2, </book> → 2, </bib> → 2
	want := []int64{1, 2, 2, 2}
	if len(counts) != len(want) {
		t.Fatalf("processed %d tokens, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("after token %d: %d nodes, want %d", i+1, counts[i], want[i])
		}
	}
	// further Steps keep returning false
	if ok, _ := p.Step(); ok {
		t.Fatal("Step after EOF should return false")
	}
}

// TestPrune: pruning r5 at an open book stops the role from matching
// inside it — a later child carries only its other roles — and leaves
// the book's siblings alone; without skipping, or on the root, nothing
// is pruned. Under go test Prune refuses a pending child frame and a
// queued sign-off of the role inside the book.
func TestPrune(t *testing.T) {
	const doc = `<bib><book><title>T</title><author>A</author></book><book><author>B</author></book></bib>`
	roles := paperRoles()
	start := func(skipping bool, tokens int) (*Preprojector, *buffer.Buffer) {
		buf := buffer.New()
		p := New(xmltok.NewTokenizer(strings.NewReader(doc)), buf, roles)
		if skipping {
			p.EnableSkipping(&xpath.Automaton{})
		}
		for i := 0; i < tokens; i++ {
			if _, err := p.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return p, buf
	}
	p, buf := start(false, 2) // <bib><book>
	book := findChild(findChild(buf.Root, "bib", 0), "book", 0)
	if p.Prune(book, 4) {
		t.Fatal("pruned without skipping")
	}

	p, buf = start(true, 2)
	book = findChild(findChild(buf.Root, "bib", 0), "book", 0)
	if p.Prune(buf.Root, 4) || !p.Prune(book, 4) {
		t.Fatal("Prune must refuse the root and accept the open book")
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	bib := findChild(buf.Root, "bib", 0)
	title := findChild(findChild(bib, "book", 0), "title", 0)
	if title == nil || title.RoleCount(4) != 0 || title.RoleCount(6) != 1 {
		t.Fatalf("title after the prune: %s", buf.Dump(nil))
	}
	if findChild(findChild(bib, "book", 0), "author", 0) != nil {
		t.Fatalf("the first book's author carried only r5 and is still buffered:\n%s", buf.Dump(nil))
	}
	if a := findChild(findChild(bib, "book", 1), "author", 0); a == nil || a.RoleCount(4) != 1 {
		t.Fatalf("the second book lost r5:\n%s", buf.Dump(nil))
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Prune accepted %s", what)
			}
		}()
		f()
	}
	p, buf = start(true, 3) // <bib><book><title>
	book = findChild(findChild(buf.Root, "bib", 0), "book", 0)
	buf.QueueSignOff(findChild(book, "title", 0), xpath.Path{Steps: []xpath.Step{xpath.DescendantOrSelfNodeStep()}}, 4)
	mustPanic("a queued sign-off of the role inside the base", func() { p.Prune(book, 4) })
	p, buf = start(true, 2)
	book = findChild(findChild(buf.Root, "bib", 0), "book", 0)
	p.Dead("title")
	mustPanic("a pending child frame", func() { p.Prune(book, 4) })
}

// deadRecorder is the source's Skipper in TestDead: it asks the
// preprojector and records each answer with the child's element path,
// "+" for alive and "-" for dead.
type deadRecorder struct {
	p   *Preprojector
	got []string
}

func (r *deadRecorder) Dead(name string) bool {
	dead := r.p.Dead(name)
	path := name
	for i := len(r.p.stack) - 1; i > 0; i-- {
		path = r.p.stack[i].name + "/" + path
	}
	mark := "+"
	if dead {
		mark = "-"
	}
	r.got = append(r.got, mark+path)
	return dead
}

// TestDead pins Dead's verdict on every start tag the tokenizer asks
// about, for the path sets of the paper's projection shapes. A dead
// child is skipped, so nothing below it is asked.
func TestDead(t *testing.T) {
	c := xpath.ChildStep
	desc := func(name string) xpath.Step {
		return xpath.Step{Axis: xpath.Descendant, Test: xpath.Test{Kind: xpath.TestName, Name: name}}
	}
	first := func(name string) xpath.Step {
		return xpath.Step{Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestName, Name: name}, FirstOnly: true}
	}
	self := func(name string) xpath.Step {
		return xpath.Step{Axis: xpath.Self, Test: xpath.Test{Kind: xpath.TestName, Name: name}}
	}
	paths := func(steps ...[]xpath.Step) []xpath.Path {
		ps := make([]xpath.Path, len(steps))
		for i, s := range steps {
			ps[i] = xpath.Path{Steps: s}
		}
		return ps
	}
	type steps = []xpath.Step
	cases := []struct {
		name  string
		roles []xpath.Path
		doc   string
		want  string
	}{{
		// /site/people/person, the Q1 binding shape: an unmentioned
		// sibling section and everything below the matched leaf are dead.
		name:  "child chain",
		roles: paths(steps{c("site"), c("people"), c("person")}),
		doc:   `<site><regions><item/></regions><people><person><name/></person></people></site>`,
		want:  "+site -site/regions +site/people +site/people/person -site/people/person/name",
	}, {
		name:  "child chain wrong root",
		roles: paths(steps{c("site"), c("people"), c("person")}),
		doc:   `<other><site/></other>`,
		want:  "-other",
	}, {
		// /site/regions//item keeps the whole regions subtree alive, at
		// any depth, and lets the sibling people section go dead.
		name:  "descendant item keeps regions",
		roles: paths(steps{c("site"), c("regions"), desc("item")}),
		doc:   `<site><people><person/></people><regions><africa><x><y><z/></y></x><item/></africa></regions></site>`,
		want:  "+site -site/people +site/regions +site/regions/africa +site/regions/africa/x +site/regions/africa/x/y +site/regions/africa/x/y/z +site/regions/africa/item",
	}, {
		// /a/b/descendant-or-self::node(), the output-role shape.
		name:  "descendant-or-self output tail",
		roles: paths(steps{c("a"), c("b"), xpath.DescendantOrSelfNodeStep()}),
		doc:   `<a><b><c><d/></c></b><c/></a>`,
		want:  "+a +a/b +a/b/c +a/b/c/d -a/c",
	}, {
		name:  "wildcard",
		roles: paths(steps{c("bib"), xpath.WildcardStep(), c("price")}),
		doc:   `<bib><anything><price/><title/></anything></bib>`,
		want:  "+bib +bib/anything +bib/anything/price -bib/anything/title",
	}, {
		// The first w matches the [1] step and flips its latch although
		// the self step fails: it is alive for the flip, and its child is
		// dead. The flip leaves the second w nothing to match.
		name:  "first-witness latch",
		roles: paths(steps{c("a"), first("w"), self("never")}),
		doc:   `<a><w><x/></w><w/></a>`,
		want:  "+a +a/w -a/w/x -a/w",
	}, {
		name:  "several paths",
		roles: paths(steps{c("a"), c("b")}, steps{c("a"), c("c"), c("d")}),
		doc:   `<a><b/><c><d/></c><e/></a>`,
		want:  "+a +a/b +a/c +a/c/d -a/e",
	}, {
		// The root role "/" completes at the virtual root and keeps
		// nothing below it alive.
		name:  "empty-path root role",
		roles: paths(steps{}, steps{c("a")}),
		doc:   `<b><a/></b>`,
		want:  "-b",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tok := xmltok.NewTokenizer(strings.NewReader(tc.doc))
			buf := buffer.New()
			p := New(tok, buf, tc.roles)
			p.EnableSkipping(&xpath.Automaton{})
			rec := &deadRecorder{p: p}
			tok.SetSkipper(rec)
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(rec.got, " "); got != tc.want {
				t.Errorf("answers\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
