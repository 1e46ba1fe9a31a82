package engine

import (
	"bytes"
	"strings"
	"testing"

	"gcx/internal/analysis"
	"gcx/internal/stats"
	"gcx/internal/xqparse"
)

// PaperQuery is the running example of the paper (§1).
const PaperQuery = `<r> {
for $bib in /bib return
(for $x in $bib/* return
   if (not(exists $x/price)) then $x else (),
 for $b in $bib/book return $b/title)
} </r>`

// fig3Doc builds the paper's Fig. 3 input: a bib with ten children
// <t><author/><title/><price/></t>, kinds given per position.
func fig3Doc(kinds []string) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for _, k := range kinds {
		b.WriteString("<" + k + "><author></author><title></title><price></price></" + k + ">")
	}
	b.WriteString("</bib>")
	return b.String()
}

func repeatKinds(kind string, n int, last string) []string {
	kinds := make([]string, n+1)
	for i := 0; i < n; i++ {
		kinds[i] = kind
	}
	kinds[n] = last
	return kinds
}

func compile(t *testing.T, src string) *analysis.Plan {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := analysis.Analyze(q)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return plan
}

// run executes a query over a document and returns output + result.
func run(t *testing.T, src, doc string, cfg Config) (string, *stats.Run, *Engine) {
	t.Helper()
	plan := compile(t, src)
	var out bytes.Buffer
	e := newXML(plan, strings.NewReader(doc), &out, cfg)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := e.Buffer().CheckInvariants(); err != nil {
		t.Fatalf("buffer invariants after run: %v", err)
	}
	if !cfg.DisableGC {
		if err := e.CheckBalance(); err != nil {
			t.Fatalf("role balance after run: %v\n%s", err, e.Buffer().Dump(nil))
		}
	}
	return out.String(), res, e
}

// TestPaperExampleOutput: on the Fig. 1 prefix document, the query
// outputs nothing from the first loop (the book has a price) — wait, the
// Fig. 1 document has no price, so the book IS output — and the title
// from the second loop.
func TestPaperExampleOutputFig1(t *testing.T) {
	doc := `<bib><book><title>T</title><author>A</author></book></bib>`
	out, res, _ := run(t, PaperQuery, doc, Config{})
	// book has no price → first loop emits the whole book; second loop
	// emits the title.
	want := `<r><book><title>T</title><author>A</author></book><title>T</title></r>`
	if out != want {
		t.Fatalf("output:\n got %q\nwant %q", out, want)
	}
	if res.FinalBufferedNodes != 0 {
		t.Fatalf("final buffered nodes = %d, want 0", res.FinalBufferedNodes)
	}
}

func TestPaperExampleWithPrices(t *testing.T) {
	doc := fig3Doc(repeatKinds("article", 9, "book"))
	out, res, _ := run(t, PaperQuery, doc, Config{})
	// All children have price → first loop outputs nothing; the single
	// book's title is emitted (empty).
	want := `<r><title></title></r>`
	if out != want {
		t.Fatalf("output = %q, want %q", out, want)
	}
	if res.TokensProcessed != 82 {
		t.Fatalf("tokens = %d, want 82", res.TokensProcessed)
	}
	if res.FinalBufferedNodes != 0 {
		t.Fatalf("final buffered = %d", res.FinalBufferedNodes)
	}
}

// TestFig3bBufferProfile reproduces the paper's Figure 3(b):
// 9×article + 1×book. Articles are processed one at a time, so the
// buffer oscillates and stays bounded (peak 6: bib + article subtree +
// next article's open tag overlap).
func TestFig3bBufferProfile(t *testing.T) {
	doc := fig3Doc(repeatKinds("article", 9, "book"))
	rec := stats.NewRecorder(1)
	_, res, _ := run(t, PaperQuery, doc, Config{Recorder: rec})
	if res.PeakBufferedNodes > 6 {
		t.Fatalf("Fig 3(b): peak buffered = %d, want <= 6 (bounded oscillation)", res.PeakBufferedNodes)
	}
	if len(rec.Points) != 82 {
		t.Fatalf("recorded %d points, want 82", len(rec.Points))
	}
	// Oscillation: after each article is closed and its sign-offs drain,
	// the buffer returns to 1 (just bib).
	drops := 0
	for i := 1; i < len(rec.Points); i++ {
		if rec.Points[i].Nodes < rec.Points[i-1].Nodes {
			drops++
		}
	}
	if drops < 9 {
		t.Fatalf("expected >= 9 purge events, saw %d", drops)
	}
}

// TestFig3cBufferProfile reproduces Figure 3(c): 9×book + 1×article.
// Books retain book{r6} and title{r7} for the second loop, so the
// buffer grows; the paper reports 23 buffered nodes when </bib> is
// read (deferred sign-off timing).
func TestFig3cBufferProfile(t *testing.T) {
	doc := fig3Doc(repeatKinds("book", 9, "article"))
	rec := stats.NewRecorder(1)
	_, res, _ := run(t, PaperQuery, doc, Config{Recorder: rec})
	// The 82nd token is </bib>.
	atBibClose := rec.Points[81]
	if atBibClose.Token != 82 {
		t.Fatalf("point 82 is token %d", atBibClose.Token)
	}
	if atBibClose.Nodes != 23 {
		t.Fatalf("Fig 3(c): %d nodes buffered at </bib>, paper reports 23", atBibClose.Nodes)
	}
	if res.PeakBufferedNodes != 23 {
		t.Fatalf("peak = %d, want 23", res.PeakBufferedNodes)
	}
	if res.FinalBufferedNodes != 0 {
		t.Fatalf("final = %d, want 0", res.FinalBufferedNodes)
	}
}

// TestFig3cEagerMode: with eager sign-offs the last article's subtree is
// purged before </bib> is read. Only the article element itself remains
// (it is the pinned current binding), so 20 nodes are buffered at
// </bib>: bib + 9×(book,title) + article — versus 23 in deferred mode.
func TestFig3cEagerMode(t *testing.T) {
	doc := fig3Doc(repeatKinds("book", 9, "article"))
	rec := stats.NewRecorder(1)
	_, _, _ = run(t, PaperQuery, doc, Config{SignOffMode: Eager, Recorder: rec})
	atBibClose := rec.Points[81]
	if atBibClose.Nodes != 20 {
		t.Fatalf("eager mode: %d nodes at </bib>, want 20", atBibClose.Nodes)
	}
}

// TestEagerAndDeferredSameOutput: the sign-off mode changes buffer
// timing, never results.
func TestEagerAndDeferredSameOutput(t *testing.T) {
	doc := fig3Doc([]string{"book", "article", "book", "article", "book"})
	out1, _, _ := run(t, PaperQuery, doc, Config{SignOffMode: Deferred})
	out2, _, _ := run(t, PaperQuery, doc, Config{SignOffMode: Eager})
	if out1 != out2 {
		t.Fatalf("outputs differ:\ndeferred %q\neager    %q", out1, out2)
	}
}

// TestProjectionOnlyBaseline: DisableGC keeps everything projected in
// the buffer (the FluXQuery-class baseline).
func TestProjectionOnlyBaseline(t *testing.T) {
	doc := fig3Doc(repeatKinds("article", 9, "book"))
	out, res, _ := run(t, PaperQuery, doc, Config{DisableGC: true})
	want := `<r><title></title></r>`
	if out != want {
		t.Fatalf("output = %q", out)
	}
	// every node matches r5, so everything stays buffered
	if res.FinalBufferedNodes != 41 {
		t.Fatalf("no-GC final buffered = %d, want 41", res.FinalBufferedNodes)
	}
	if res.TotalPurged != 0 {
		t.Fatalf("no-GC purged = %d, want 0", res.TotalPurged)
	}
}

// TestJoinQuery: value-based join across two sections (the Q8 shape).
func TestJoinQuery(t *testing.T) {
	const q = `<result>{ for $p in /site/people/person return
	  <item>{ $p/name,
	    for $t in /site/closed_auctions/closed_auction return
	      if ($t/buyer/@person = $p/@id) then $t/price else () }</item> }</result>`
	const doc = `<site>
	  <people>
	    <person id="p1"><name>Ann</name></person>
	    <person id="p2"><name>Bob</name></person>
	  </people>
	  <open_auctions><open_auction><bidder/></open_auction></open_auctions>
	  <closed_auctions>
	    <closed_auction><buyer person="p2"/><price>42</price></closed_auction>
	    <closed_auction><buyer person="p1"/><price>7</price></closed_auction>
	    <closed_auction><buyer person="p2"/><price>9</price></closed_auction>
	  </closed_auctions>
	</site>`
	out, res, _ := run(t, q, doc, Config{})
	want := `<result><item><name>Ann</name><price>7</price></item>` +
		`<item><name>Bob</name><price>42</price><price>9</price></item></result>`
	if out != want {
		t.Fatalf("join output:\n got %q\nwant %q", out, want)
	}
	if res.FinalBufferedNodes != 0 {
		t.Fatalf("final buffered = %d, want 0 (hoisted sign-offs ran)", res.FinalBufferedNodes)
	}
	// The open_auctions section is never projected: exactly 21 nodes are
	// buffered over the run (site+people+closed_auctions chain elements,
	// 2 persons with names and name texts, 3 auctions with buyer, price
	// and price text).
	if res.TotalAppended != 21 {
		t.Fatalf("appended %d nodes, want 21 (open_auctions projected away)", res.TotalAppended)
	}
	// The hash join operator ran: 2 probe bindings, 3 build tuples,
	// 3 emitted payloads.
	if res.JoinProbeTuples != 2 || res.JoinBuildTuples != 3 || res.JoinMatches != 3 {
		t.Fatalf("join counters = probe %d build %d matches %d, want 2/3/3",
			res.JoinProbeTuples, res.JoinBuildTuples, res.JoinMatches)
	}
}

// TestJoinDisabled: DisableJoin falls back to nested-loop evaluation
// with byte-identical output and zero join counters.
func TestJoinDisabled(t *testing.T) {
	const q = `<result>{ for $p in /site/people/person return
	  <item>{ $p/name,
	    for $t in /site/closed_auctions/closed_auction return
	      if ($t/buyer/@person = $p/@id) then $t/price else () }</item> }</result>`
	const doc = `<site><people>` +
		`<person id="p1"><name>Ann</name></person>` +
		`<person id="p2"><name>Bob</name></person>` +
		`</people><closed_auctions>` +
		`<closed_auction><buyer person="p2"/><price>42</price></closed_auction>` +
		`<closed_auction><buyer person="p1"/><price>7</price></closed_auction>` +
		`</closed_auctions></site>`
	joined, jres, _ := run(t, q, doc, Config{})
	nested, nres, _ := run(t, q, doc, Config{DisableJoin: true})
	if joined != nested {
		t.Fatalf("join output diverges from nested loop:\n join %q\n nest %q", joined, nested)
	}
	if jres.JoinProbeTuples == 0 || jres.JoinMatches != 2 {
		t.Fatalf("join path did not run: %+v", jres)
	}
	if nres.JoinProbeTuples != 0 || nres.JoinBuildTuples != 0 || nres.JoinMatches != 0 {
		t.Fatalf("disabled run reported join counters: %+v", nres)
	}
}

// TestAttributeComparisonAndOutput: Q1 shape.
func TestAttributeComparisonAndOutput(t *testing.T) {
	const q = `<result>{ for $p in /site/people/person return
	   if ($p/@id = "person0") then $p/name else () }</result>`
	const doc = `<site><people>` +
		`<person id="person0"><name>Kasya Eyre</name></person>` +
		`<person id="person1"><name>Other</name></person>` +
		`</people></site>`
	out, _, _ := run(t, q, doc, Config{})
	want := `<result><name>Kasya Eyre</name></result>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

// TestNumericComparisons: Q20 shape with @income brackets.
func TestNumericComparisons(t *testing.T) {
	const q = `<out>{ for $p in /people/person return
	  (if ($p/profile/@income > 95000) then <hi>{$p/@id}</hi> else (),
	   if ($p/profile/@income > 30000 and $p/profile/@income <= 95000) then <mid>{$p/@id}</mid> else (),
	   if (not(exists $p/profile/@income)) then <none>{$p/@id}</none> else ()) }</out>`
	const doc = `<people>` +
		`<person id="a"><profile income="100000.5"/></person>` +
		`<person id="b"><profile income="50000"/></person>` +
		`<person id="c"><profile/></person>` +
		`<person id="d"><profile income="10000"/></person>` +
		`</people>`
	out, _, _ := run(t, q, doc, Config{})
	want := `<out><hi>a</hi><mid>b</mid><none>c</none></out>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

// TestDescendantLoop: Q6 shape (//item).
func TestDescendantLoop(t *testing.T) {
	const q = `<items>{ for $r in /site/regions return
	    for $i in $r//item return <i>{$i/name/text()}</i> }</items>`
	const doc = `<site><regions>` +
		`<africa><item id="i1"><name>N1</name></item></africa>` +
		`<asia><item id="i2"><name>N2</name><sub><item id="i3"><name>N3</name></item></sub></item></asia>` +
		`</regions><people><person id="p"/></people></site>`
	out, res, _ := run(t, q, doc, Config{})
	want := `<items><i>N1</i><i>N2</i><i>N3</i></items>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
	if res.FinalBufferedNodes != 0 {
		t.Fatalf("final buffered = %d", res.FinalBufferedNodes)
	}
}

// TestNestedDescendantBindingsBalance: overlapping descendant bindings
// exercise multiset role accounting end to end.
func TestNestedDescendantBindingsBalance(t *testing.T) {
	const q = `<o>{ for $s in /doc//s return <k>{$s/v/text()}</k> }</o>`
	const doc = `<doc><s><v>1</v><s><v>2</v></s></s><s><v>3</v></s></doc>`
	out, _, _ := run(t, q, doc, Config{})
	want := `<o><k>1</k><k>2</k><k>3</k></o>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

// TestCountExtension: aggregation is opt-in.
func TestCountExtension(t *testing.T) {
	const q = `<counts>{ for $a in /as/a return <c>{count($a/b)}</c> }</counts>`
	const doc = `<as><a><b/><b/><b/></a><a/><a><b/></a></as>`
	plan := compile(t, q)
	var out bytes.Buffer
	if _, err := newXML(plan, strings.NewReader(doc), &out, Config{}).Run(); err == nil {
		t.Fatal("count() must be rejected without EnableAggregation")
	}
	got, _, _ := run(t, q, doc, Config{EnableAggregation: true})
	want := `<counts><c>3</c><c>0</c><c>1</c></counts>`
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestTextOutput: text() paths output only character data.
func TestTextOutput(t *testing.T) {
	const q = `<t>{ for $b in /bib/book return $b/title/text() }</t>`
	const doc = `<bib><book><title>A<sub>X</sub>B</title></book></bib>`
	out, _, _ := run(t, q, doc, Config{})
	// title has two text children "A" and "B"; <sub>'s content is not a
	// direct text child.
	want := `<t>AB</t>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

// TestEmptyInputAndNoMatches: loops over absent data emit nothing.
func TestEmptyInputAndNoMatches(t *testing.T) {
	out, res, _ := run(t, `<r>{ for $x in /a/b return $x }</r>`, `<a></a>`, Config{})
	if out != `<r></r>` {
		t.Fatalf("got %q", out)
	}
	if res.FinalBufferedNodes != 0 {
		t.Fatal("buffer should be empty")
	}
}

// TestEarlyAnswerStillReadsWholeInput: Fig. 5 Q1-style early answers do
// not shortcut the stream (times scale with document size in the
// paper). With subtree skipping the irrelevant <c/> subtrees are
// fast-forwarded rather than tokenized, but every token is still
// accounted for: processed tokens plus skipped tags cover the whole
// document, and a skip-disabled run tokenizes all 16.
func TestEarlyAnswerStillReadsWholeInput(t *testing.T) {
	const q = `<r>{ if (exists /a/b) then "y" else "n" }</r>`
	const doc = `<a><b/><c/><c/><c/><c/><c/><c/></a>`
	out, res, _ := run(t, q, doc, Config{})
	if out != `<r>y</r>` {
		t.Fatalf("got %q", out)
	}
	if res.TokensProcessed+res.TagsSkipped != 16 {
		t.Fatalf("tokens %d + skipped tags %d, want 16 total", res.TokensProcessed, res.TagsSkipped)
	}
	if res.SubtreesSkipped != 6 {
		t.Fatalf("subtrees skipped = %d, want the 6 <c/> elements", res.SubtreesSkipped)
	}
	out, res, _ = run(t, q, doc, Config{DisableSkip: true})
	if out != `<r>y</r>` {
		t.Fatalf("skip-disabled run got %q", out)
	}
	if res.TokensProcessed != 16 {
		t.Fatalf("skip-disabled tokens = %d, want all 16", res.TokensProcessed)
	}
}

// TestStringValueComparison: element operands compare by string value
// (concatenated text of the subtree).
func TestStringValueComparison(t *testing.T) {
	const q = `<r>{ for $a in /d/a return if ($a/k = "xy") then $a/@n else () }</r>`
	const doc = `<d><a n="1"><k>x<i>y</i></k></a><a n="2"><k>z</k></a></d>`
	out, _, _ := run(t, q, doc, Config{})
	if out != `<r>1</r>` {
		t.Fatalf("got %q", out)
	}
}

// TestMultipleSequentialLoops: re-scanning buffered data in later
// sibling loops works (roles are per occurrence).
func TestMultipleSequentialLoops(t *testing.T) {
	const q = `<r>{ (for $x in /l/v return <a>{$x/text()}</a>,
	                for $y in /l/v return <b>{$y/text()}</b>) }</r>`
	const doc = `<l><v>1</v><v>2</v></l>`
	out, res, _ := run(t, q, doc, Config{})
	want := `<r><a>1</a><a>2</a><b>1</b><b>2</b></r>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
	if res.FinalBufferedNodes != 0 {
		t.Fatal("all roles must be signed off at the end")
	}
}

// TestRecorderSampling: sampled recording bounds series size.
func TestRecorderSampling(t *testing.T) {
	doc := fig3Doc(repeatKinds("book", 9, "article"))
	rec := stats.NewRecorder(10)
	_, _, _ = run(t, PaperQuery, doc, Config{Recorder: rec})
	if len(rec.Points) != 8 {
		t.Fatalf("sampled %d points, want 8 (82 tokens / 10)", len(rec.Points))
	}
}

// TestPeakBytesTracked: byte watermark moves with the node watermark.
func TestPeakBytesTracked(t *testing.T) {
	doc := fig3Doc(repeatKinds("book", 9, "article"))
	_, res, _ := run(t, PaperQuery, doc, Config{})
	if res.PeakBufferedBytes <= 0 {
		t.Fatal("PeakBufferedBytes not tracked")
	}
	if res.PeakBufferedBytes < res.PeakBufferedNodes*64 {
		t.Fatalf("bytes watermark %d implausibly small for %d nodes",
			res.PeakBufferedBytes, res.PeakBufferedNodes)
	}
}
