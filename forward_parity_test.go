package gcx_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"gcx"
	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/core"
	"gcx/internal/engine"
	"gcx/internal/event"
	"gcx/internal/jsontok"
	"gcx/internal/stats"
	"gcx/internal/xmark"
	"gcx/internal/xmltok"
	"gcx/internal/xqgen"
)

// nestedItems has items nested two and three deep, empty elements
// written both ways, whitespace-only and entity/CDATA text, and
// attribute values that need escaping.
const nestedItems = `<site><regions><x>` +
	`<item id="a&amp;&quot;&lt;1"><name>n1 &amp; <![CDATA[<c>]]></name>` +
	`<item id="b"><name>n2</name><e/><f></f><item><name>  </name><g k="&gt;"/></item>  </item>` +
	`t <name/></item>` +
	`<item><name> </name></item></x>` +
	`<item><e></e><name>z</name></item>` +
	`<item/>` +
	`</regions></site>`

// nestedAs nests a two and three deep, with b children before, between
// and after the nested ones.
const nestedAs = `<r><a><b>1</b><a><b>2</b><a><b>3</b></a><b>4</b></a><b>5</b></a><a><b>6</b></a></r>`

// TestForwardParity pins stream-through output (DESIGN.md §3): an
// output expression marked stream, evaluated while its binding is open,
// writes its matches from the stream, and the bytes must equal the DOM
// engine's and the no-skip plan's, which buffers every binding and
// serializes it at the close. On every input backing the role balance
// must close, the peak must not exceed the no-skip plan's, and where a
// binding streams fewer nodes are appended.
func TestForwardParity(t *testing.T) {
	ndjson := `{"id":"1","item":{"name":"a\"b\\c","x":[]},"seller":"s1"}` + "\n" +
		`{"name":{"name":["n",{"name":"m"}]}}` + "\n" +
		`{"item":{"name":["n1",{"k":"v"},[],null,2]}}` + "\n" +
		`{"item":{"x":1,"name":{}}}` + "\n" +
		`{"item":[{"name":"first"},{"name":"second"}]}` + "\n" +
		`{"other":"no item"}` + "\n"
	witness := `<site><people>` +
		`<person><name>A</name><z/><name>B<w/>C</name></person>` +
		`<person><name>D<w>x</w>E</name><name>F</name></person>` +
		`<person><name>G</name></person>` +
		`</people></site>`
	for _, c := range []struct {
		name, query, doc string
		format           core.Format
		// fewer: some binding streams, so fewer nodes are appended than
		// by the no-skip plan.
		fewer bool
	}{
		{"E1 over nested items", `<r>{ for $r in /site/regions return for $i in $r//item return $i }</r>`, nestedItems, core.FormatXML, true},
		{"Q6 over nested items", `<r>{ for $r in /site/regions return for $i in $r//item return <item>{ $i/name }</item> }</r>`, nestedItems, core.FormatXML, true},
		{"item then its name", `<r>{ for $i in /site//item return ($i, $i/name) }</r>`, nestedItems, core.FormatXML, true},
		{"name then its item", `<r>{ for $i in /site//item return ($i/name, $i) }</r>`, nestedItems, core.FormatXML, false},
		{"wildcard children", `<r>{ for $i in /site/regions//item return ($i/*, "|") }</r>`, nestedItems, core.FormatXML, true},
		{"two child steps", `<r>{ for $s in /site return $s/regions/x/item }</r>`, nestedItems, core.FormatXML, true},
		{"top-level path", `<r>{ /site/regions/x/item/name }</r>`, nestedItems, core.FormatXML, true},
		{"matches before the witness", `<o>{ for $p in /site/people/person return if (exists $p/z) then $p/name else () }</o>`, witness, core.FormatXML, true},
		{"an open match at the witness", `<o>{ for $p in /site/people/person return if (exists $p/name/w) then $p/name else "-" }</o>`, witness, core.FormatXML, true},
		{"nested descendant matches", `<o>{ for $x in /r return $x//a }</o>`, nestedAs, core.FormatXML, true},
		{"descendant then descendant", `<o>{ for $x in /r return ($x//a//b, "|") }</o>`, nestedAs, core.FormatXML, true},
		{"descendant then child", `<o>{ for $x in /r return $x//a/b }</o>`, nestedAs, core.FormatXML, true},
		{"nested matches open at the witness", `<o>{ for $x in /r return if (exists $x/a/a/a/b) then $x//a else "-" }</o>`, nestedAs, core.FormatXML, true},
		{"nested items", `<r>{ for $s in /site return $s//item }</r>`, nestedItems, core.FormatXML, true},
		{"start-tag decision", `<o>{ for $p in /site/people/person return if ($p/@id = "p1") then $p/name else () }</o>`, pruneDoc, core.FormatXML, true},
		{"decided at the close", `<o>{ for $p in /site/people/person return if ($p/x/@k = "1") then $p/name else () }</o>`, pruneDoc, core.FormatXML, false},
		{"ndjson record", `for $r in /*/record return $r`, ndjson, core.FormatNDJSON, true},
		{"ndjson path", `for $r in /*/record return $r/item/name`, ndjson, core.FormatNDJSON, true},
		{"ndjson nested names", `for $r in /*/record return $r//name`, ndjson, core.FormatNDJSON, true},
		{"ndjson decided at the close", `for $r in /*/record return if ($r/seller = "s1") then $r/item else ()`, ndjson, core.FormatNDJSON, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			format := gcx.FormatXML
			if c.format == core.FormatNDJSON {
				format = gcx.FormatNDJSON
			}
			want, _, err := gcx.MustCompile(c.query).ExecuteString(c.doc, gcx.Options{Engine: gcx.EngineDOM, Format: format})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := core.Compile(c.query)
			if err != nil {
				t.Fatal(err)
			}
			checkForwardParity(t, plan, c.format, c.doc, want, c.fewer)
		})
	}
}

// checkForwardParity runs plan on every input backing against its
// no-skip copy (want, when not empty, is the DOM engine's output too)
// and reports whether some binding streamed.
func checkForwardParity(t *testing.T, plan *analysis.Plan, format core.Format, doc, want string, fewer bool) {
	t.Helper()
	noSkip := *plan
	noSkip.Automaton = nil
	refOut, ref := runBalanced(t, &noSkip, format, []byte(doc), nil)
	if want != "" && refOut != want {
		t.Fatalf("no-skip plan differs from the DOM engine\n got: %s\nwant: %s", refOut, want)
	}
	for _, in := range []struct {
		name string
		r    func() io.Reader
	}{
		{"bytes", nil},
		{"reader", func() io.Reader { return strings.NewReader(doc) }},
		{"16-63-byte chunks", func() io.Reader {
			return &chunkedReader{data: []byte(doc), r: rand.New(rand.NewSource(int64(len(doc))))}
		}},
		{"one byte at a time", func() io.Reader { return iotest.OneByteReader(strings.NewReader(doc)) }},
	} {
		got, res := runBalanced(t, plan, format, []byte(doc), in.r)
		if got != refOut {
			t.Fatalf("%s: output differs from the no-skip plan's\n got: %s\nwant: %s", in.name, got, refOut)
		}
		if res.PeakBufferedNodes > ref.PeakBufferedNodes {
			t.Errorf("%s: peak %d, no-skip plan %d", in.name, res.PeakBufferedNodes, ref.PeakBufferedNodes)
		}
		if res.TotalAppended > ref.TotalAppended {
			t.Errorf("%s: %d nodes appended, no-skip plan %d", in.name, res.TotalAppended, ref.TotalAppended)
		}
		if fewer && res.TotalAppended == ref.TotalAppended {
			t.Errorf("%s: %d nodes appended, as many as the no-skip plan: nothing streamed", in.name, res.TotalAppended)
		}
	}
}

// TestForwardParityCatalog runs the XMark and NDJSON catalogs and
// generated queries through checkForwardParity: the verdicts' stream
// expressions must give the buffered path's bytes on every backing.
func TestForwardParityCatalog(t *testing.T) {
	xml, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 64 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ndjson, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 32 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(name, query, doc string, format core.Format) {
		t.Run(name, func(t *testing.T) {
			plan, err := core.Compile(query)
			if err != nil {
				t.Fatal(err)
			}
			checkForwardParity(t, plan, format, doc, "", false)
		})
	}
	for _, id := range xmark.QueryIDs() {
		run(id, xmark.Queries[id].Text, xml, core.FormatXML)
	}
	run("E1", queryE1, xml, core.FormatXML)
	for id, q := range xmark.NDJSONQueries {
		run(id, q.Text, ndjson, core.FormatNDJSON)
	}
	for i := int64(0); i < 300; i++ {
		query := xqgen.Query(rand.New(rand.NewSource(i)), xqgen.DefaultOptions())
		doc := xqgen.Document(rand.New(rand.NewSource(i*31 + 7)))
		if nestedWork(query, doc) > 1e6 {
			continue
		}
		run(fmt.Sprintf("xqgen %d", i), query, doc, core.FormatXML)
	}
}

// cancelAfter is a reader that cancels its context once n bytes have
// been read.
type cancelAfter struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.n -= n; c.n <= 0 {
		c.cancel()
	}
	return n, err
}

// TestForwardFailureLeavesPoolsClean breaks runs in the middle of a
// forward — a node budget breached by the inner items a forwarded item
// must still buffer, and a cancellation — and then requires a good run
// on the same pools to balance. A failed binding may have written a
// prefix of itself (DESIGN.md §3, "Output on error").
func TestForwardFailureLeavesPoolsClean(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<site><regions><item><name>outer</name>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&doc, "<item><name>i%d</name></item>", i)
	}
	doc.WriteString("</item></regions></site>")
	plan, err := core.Compile(queryE1)
	if err != nil {
		t.Fatal(err)
	}
	good := func() {
		t.Helper()
		runBalanced(t, plan, core.FormatXML, []byte(nestedItems), func() io.Reader { return strings.NewReader(nestedItems) })
	}
	for i := 0; i < 3; i++ {
		var out strings.Builder
		src := xmltok.NewTokenizer(strings.NewReader(doc.String()))
		sink, _ := core.NewSink(core.FormatXML, &out)
		e := engine.New(plan, src, sink, engine.Config{MaxBufferedNodes: 50})
		_, err := e.Run()
		e.Release()
		if !errors.Is(err, buffer.ErrBudget) {
			t.Fatalf("budget run: want ErrBudget, got %v", err)
		}
		good()

		ctx, cancel := context.WithCancel(context.Background())
		src = xmltok.NewTokenizer(&cancelAfter{r: iotest.OneByteReader(strings.NewReader(doc.String())), n: 400, cancel: cancel})
		sink, _ = core.NewSink(core.FormatXML, &out)
		e = engine.New(plan, src, sink, engine.Config{})
		_, err = e.RunContext(ctx, new(stats.Run))
		e.Release()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: want context.Canceled, got %v", err)
		}
		good()
	}
	// The JSON sink and tokenizer pools as well.
	jplan, err := core.Compile(`for $r in /*/record return $r`)
	if err != nil {
		t.Fatal(err)
	}
	var src event.Source = jsontok.NewTokenizer(strings.NewReader(`{"a":[1,2,{"b":"c"}]}` + "\n" + `{"a":` + "\n"))
	var out strings.Builder
	sink, _ := core.NewSink(core.FormatNDJSON, &out)
	e := engine.New(jplan, src, sink, engine.Config{})
	_, err = e.Run()
	e.Release()
	var je *jsontok.SyntaxError
	if !errors.As(err, &je) {
		t.Fatalf("truncated record: want a syntax error, got %v", err)
	}
	runBalanced(t, jplan, core.FormatNDJSON, []byte(`{"a":[1,{"b":"c"}]}`+"\n"), nil)
}
