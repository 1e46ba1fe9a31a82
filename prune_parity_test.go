package gcx_test

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"gcx"
	"gcx/internal/analysis"
	"gcx/internal/core"
	"gcx/internal/engine"
	"gcx/internal/event"
	"gcx/internal/jsontok"
	"gcx/internal/stats"
	"gcx/internal/xmltok"
)

// pruneDoc has persons whose conditions are decided at the start tag,
// at a first witness, or only at the close, with the read parts before
// and after the deciding child.
const pruneDoc = `<site><people>` +
	`<person id="p0"><x k="1"><name>X0</name></x><name>A</name><homepage>h0</homepage><z/><tail><name>T</name></tail></person>` +
	`<person id="p1"><name>B</name><x k="2"><name>X1</name></x><z/></person>` +
	`<person id="p2"><homepage>h2</homepage><name>C</name><x k="1"><name>X2</name><w>deep</w></x></person>` +
	`<person><name>D</name><x k="1"><name>X3</name></x></person>` +
	`</people></site>`

// TestPruneParity pins the prune of a decided binding (DESIGN.md §3): a
// prunable sign-off executed while its binding is open drops the role
// from the preprojector's open frames and runs at once. On every input
// backing the output must equal the DOM engine's and the no-skip plan's,
// whose runs never prune; the role balance must close exactly; the peak
// must not exceed the no-skip plan's; and where the decided bindings had
// unread content the role alone wanted, fewer nodes are appended.
func TestPruneParity(t *testing.T) {
	ndjson := `{"id":"1","reserve":"5","seller":"s1","bidder":["b1","b2"]}` + "\n" +
		`{"id":"2","seller":"s2","reserve":"3"}` + "\n" +
		`{"seller":"s3","bidder":"b"}` + "\n" +
		`{"reserve":"","seller":{"name":"s4"},"bidder":[]}` + "\n"
	nested := `<r><b k="y"><c>1</c><b k="x"><c>2</c><b k="y"><c>3</c></b></b><c>4</c></b><b k="x"><c>5</c></b></r>`
	for _, c := range []struct {
		name, query, doc string
		format           core.Format
		// fewer: the prune keeps nodes out of the buffer that the no-skip
		// plan appends; otherwise both append the same nodes.
		fewer bool
	}{
		{"attribute true", `<o>{ for $p in /site/people/person return if ($p/@id = "p1") then $p/name else () }</o>`, pruneDoc, core.FormatXML, true},
		{"attribute false", `<o>{ for $p in /site/people/person return if ($p/@id = "none") then $p/name else () }</o>`, pruneDoc, core.FormatXML, true},
		{"attribute exists", `<o>{ for $p in /site/people/person return if (exists $p/@id) then "id" else $p/name }</o>`, pruneDoc, core.FormatXML, true},
		{"and decided by its first operand", `<o>{ for $p in /site/people/person return if ($p/@id = "p1" and exists $p/z) then $p/name else () }</o>`, pruneDoc, core.FormatXML, true},
		{"or decided by its first operand", `<o>{ for $p in /site/people/person return if ($p/@id = "p0" or exists $p/z) then "hit" else $p/name }</o>`, pruneDoc, core.FormatXML, true},
		{"not exists false at its first witness", `<o>{ for $p in /site/people/person return if (not(exists $p/homepage)) then <p>{ $p/name }</p> else () }</o>`, pruneDoc, core.FormatXML, true},
		{"nested child-only loop", `<o>{ for $p in /site/people/person return for $x in $p/x return if ($x/@k = "1") then $x/name else () }</o>`, pruneDoc, core.FormatXML, true},
		{"nodes another role buffers later", `<o>{ for $s in /site return (for $p in $s/people/person return if ($p/@id = "p1") then $p/name else (), for $n in $s/people/person/name return $n) }</o>`, pruneDoc, core.FormatXML, false},
		{"descendant binding never prunes", `<o>{ for $b in //b return if ($b/@k = "x") then $b/c else () }</o>`, nested, core.FormatXML, false},
		{"ndjson not exists", `for $r in /root/record return if (not(exists $r/reserve)) then $r/seller else ()`, ndjson, core.FormatNDJSON, true},
		{"ndjson attribute", `for $r in /root/record return if ($r/@id = "1") then $r/seller else ()`, ndjson, core.FormatNDJSON, true},
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
			noSkip := *plan
			noSkip.Automaton = nil
			refOut, ref := runBalanced(t, &noSkip, c.format, []byte(c.doc), nil)
			if refOut != want {
				t.Fatalf("no-skip plan differs from the DOM engine\n got: %s\nwant: %s", refOut, want)
			}
			for _, in := range []struct {
				name string
				r    func() io.Reader
			}{
				{"bytes", nil},
				{"reader", func() io.Reader { return strings.NewReader(c.doc) }},
				{"16-63-byte chunks", func() io.Reader {
					return &chunkedReader{data: []byte(c.doc), r: rand.New(rand.NewSource(int64(len(c.doc))))}
				}},
				{"one byte at a time", func() io.Reader { return iotest.OneByteReader(strings.NewReader(c.doc)) }},
			} {
				got, res := runBalanced(t, plan, c.format, []byte(c.doc), in.r)
				if got != want {
					t.Fatalf("%s: output differs from the DOM engine and the no-skip plan\n got: %s\nwant: %s", in.name, got, want)
				}
				if res.PeakBufferedNodes > ref.PeakBufferedNodes {
					t.Errorf("%s: peak %d, no-skip plan %d", in.name, res.PeakBufferedNodes, ref.PeakBufferedNodes)
				}
				if fewer := res.TotalAppended < ref.TotalAppended; fewer != c.fewer || res.TotalAppended > ref.TotalAppended {
					t.Errorf("%s: %d nodes appended, no-skip plan %d; want fewer: %v", in.name, res.TotalAppended, ref.TotalAppended, c.fewer)
				}
			}
		})
	}
}

// runBalanced runs plan over doc — on the zero-copy backing when r is
// nil, else over the reader r returns — and fails unless the buffer's
// invariants hold and every role instance assigned was removed.
func runBalanced(t *testing.T, plan *analysis.Plan, format core.Format, doc []byte, r func() io.Reader) (string, *stats.Run) {
	t.Helper()
	var src event.Source
	switch {
	case r == nil:
		var err error
		if src, err = core.NewSourceBytes(format, doc); err != nil {
			t.Fatal(err)
		}
	case format == core.FormatXML:
		src = xmltok.NewTokenizer(r())
	default:
		src = jsontok.NewTokenizer(r())
	}
	var out strings.Builder
	sink, err := core.NewSink(format, &out)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(plan, src, sink, engine.Config{})
	defer e.Release()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Buffer().CheckInvariants(); err != nil {
		t.Fatalf("buffer invariants: %v", err)
	}
	if err := e.CheckBalance(); err != nil {
		t.Fatalf("role balance: %v\n%s", err, e.Buffer().Dump(nil))
	}
	if res.FinalBufferedNodes != 0 {
		t.Fatalf("%d nodes left buffered", res.FinalBufferedNodes)
	}
	return out.String(), res
}
