package xmltok

import (
	"context"
	"io"
	"strings"
	"testing"
)

func collectChunks(t *testing.T, doc string, path []SplitStep, target int) []Chunk {
	t.Helper()
	sp := NewSplitter(strings.NewReader(doc), path)
	sp.SetTargetBytes(target)
	var chunks []Chunk
	for {
		c, err := sp.Next()
		if err == io.EOF {
			return chunks
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		chunks = append(chunks, c)
	}
}

func personPath() []SplitStep {
	return []SplitStep{{Name: "site"}, {Name: "people"}, {Name: "person"}}
}

func TestSplitterBasic(t *testing.T) {
	doc := `<site><regions><item>x</item></regions><people>` +
		`<person id="p0"><name>A</name></person>` +
		`<person id="p1"><name>B</name></person>` +
		`</people></site>`
	chunks := collectChunks(t, doc, personPath(), 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(chunks))
	}
	c := chunks[0]
	if c.Seq != 0 || c.Records != 2 {
		t.Fatalf("chunk = seq %d records %d", c.Seq, c.Records)
	}
	want := `<site><people>` +
		`<person id="p0"><name>A</name></person>` +
		`<person id="p1"><name>B</name></person>` +
		`</people></site>`
	if string(c.Data) != want {
		t.Fatalf("data = %q\nwant   %q", c.Data, want)
	}
}

func TestSplitterChunkTarget(t *testing.T) {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < 10; i++ {
		b.WriteString(`<person><name>somebody with a longish name</name></person>`)
	}
	b.WriteString("</people></site>")
	chunks := collectChunks(t, b.String(), personPath(), 1)
	if len(chunks) != 10 {
		t.Fatalf("chunks = %d, want 10 (one per record at tiny target)", len(chunks))
	}
	total := 0
	for i, c := range chunks {
		if c.Seq != i {
			t.Fatalf("chunk %d has seq %d", i, c.Seq)
		}
		if c.Records != 1 {
			t.Fatalf("chunk %d has %d records", i, c.Records)
		}
		if !strings.HasPrefix(string(c.Data), "<site><people><person>") ||
			!strings.HasSuffix(string(c.Data), "</person></people></site>") {
			t.Fatalf("chunk %d not re-wrapped: %q", i, c.Data)
		}
		total += c.Records
	}
	if total != 10 {
		t.Fatalf("records = %d", total)
	}
}

func TestSplitterWildcardAncestorChange(t *testing.T) {
	doc := `<site><regions>` +
		`<africa><item>a1</item><item>a2</item></africa>` +
		`<asia><item>b1</item></asia>` +
		`</regions></site>`
	path := []SplitStep{{Name: "site"}, {Name: "regions"}, {Wildcard: true}, {Name: "item"}}
	chunks := collectChunks(t, doc, path, 0)
	// Records under different continents must not share a chunk even
	// below the size target.
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d, want 2 (one per continent)", len(chunks))
	}
	if want := `<site><regions><africa><item>a1</item><item>a2</item></africa></regions></site>`; string(chunks[0].Data) != want {
		t.Fatalf("chunk 0 = %q", chunks[0].Data)
	}
	if want := `<site><regions><asia><item>b1</item></asia></regions></site>`; string(chunks[1].Data) != want {
		t.Fatalf("chunk 1 = %q", chunks[1].Data)
	}
}

func TestSplitterSelfClosing(t *testing.T) {
	doc := `<site><people/><people><person/><person a="1"/></people></site>`
	chunks := collectChunks(t, doc, personPath(), 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(chunks))
	}
	want := `<site><people><person/><person a="1"/></people></site>`
	if string(chunks[0].Data) != want || chunks[0].Records != 2 {
		t.Fatalf("chunk = %q records %d", chunks[0].Data, chunks[0].Records)
	}
}

func TestSplitterRootRecords(t *testing.T) {
	doc := `<bib><book><title>T</title></book></bib>`
	chunks := collectChunks(t, doc, []SplitStep{{Name: "bib"}}, 0)
	if len(chunks) != 1 || string(chunks[0].Data) != doc || chunks[0].Records != 1 {
		t.Fatalf("chunks = %+v", chunks)
	}
}

func TestSplitterIgnorableMarkup(t *testing.T) {
	doc := `<?xml version="1.0"?><!DOCTYPE site><site><!-- head -->` +
		`<people><!-- gap --><person><!-- inner --><name><![CDATA[x<y]]></name></person></people>` +
		`</site>`
	chunks := collectChunks(t, doc, personPath(), 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(chunks))
	}
	// Markup inside the record is preserved verbatim; markup outside is
	// dropped with the rest of the non-record content.
	want := `<site><people><person><!-- inner --><name><![CDATA[x<y]]></name></person></people></site>`
	if string(chunks[0].Data) != want {
		t.Fatalf("chunk = %q", chunks[0].Data)
	}
}

// TestSplitterEntityWhitespaceOutsideRoot: the tokenizer resolves
// character references before its whitespace-only test, so "&#32;"
// around the document element is accepted; the splitter must agree.
func TestSplitterEntityWhitespaceOutsideRoot(t *testing.T) {
	doc := "&#32;\n<site><people><person><name>A</name></person></people></site>&#x20;&#9; "
	chunks := collectChunks(t, doc, personPath(), 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(chunks))
	}
}

// TestSplitterRepeatedPrefixTerminators: CDATA/comment terminators
// preceded by their own first bytes ("]]]>", "--->") need the KMP
// fallback in patAdvance — a naive reset-on-mismatch scans past them.
func TestSplitterRepeatedPrefixTerminators(t *testing.T) {
	doc := `<site><people><person><name><![CDATA[x]]]></name><!-- dash ---></person></people></site>`
	chunks := collectChunks(t, doc, personPath(), 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(chunks))
	}
	want := `<site><people><person><name><![CDATA[x]]]></name><!-- dash ---></person></people></site>`
	if string(chunks[0].Data) != want {
		t.Fatalf("chunk = %q", chunks[0].Data)
	}
}

func TestSplitterAttributeEdgeCases(t *testing.T) {
	doc := `<site><people><person note="a>b" quip='it"s <fine>'><name>A</name></person></people></site>`
	chunks := collectChunks(t, doc, personPath(), 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(chunks))
	}
	if !strings.Contains(string(chunks[0].Data), `note="a>b" quip='it"s <fine>'`) {
		t.Fatalf("attributes mangled: %q", chunks[0].Data)
	}
}

func TestSplitterNoRecords(t *testing.T) {
	for _, doc := range []string{
		``,
		`<other><person/></other>`,
		`<site><regions/></site>`,
	} {
		chunks := collectChunks(t, doc, personPath(), 0)
		if len(chunks) != 0 {
			t.Fatalf("doc %q: chunks = %d, want 0", doc, len(chunks))
		}
	}
}

func TestSplitterMalformed(t *testing.T) {
	for _, doc := range []string{
		`<site><people><person></people></site>`, // mismatched end tag
		`<site><people>`,                         // EOF inside element
		`<site></site><site/>`,                   // content after document element
		`junk<site/>`,                            // character data outside root
		`<site></other>`,                         // wrong close
	} {
		sp := NewSplitter(strings.NewReader(doc), personPath())
		var err error
		for err == nil {
			_, err = sp.Next()
		}
		if err == io.EOF {
			t.Fatalf("doc %q: expected syntax error, got clean EOF", doc)
		}
		if _, ok := err.(*SyntaxError); !ok {
			t.Fatalf("doc %q: err = %v, want *SyntaxError", doc, err)
		}
	}
}

func TestSplitterContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := NewSplitter(strings.NewReader(`<site><people><person/></people></site>`), personPath())
	sp.SetContext(ctx)
	if _, err := sp.Next(); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSplitterTokenEquivalence is the core correctness property: the
// record tokens seen through the chunks are exactly the record tokens
// of the original document.
func TestSplitterTokenEquivalence(t *testing.T) {
	doc := `<site><a>noise</a><people>skip<person id="p0">` +
		`<name>A &amp; B</name><em/>tail</person>between<person><x><y>deep</y></x></person>` +
		`</people><z/></site>`
	path := personPath()
	want := recordTokens(t, strings.NewReader(doc), path)
	var got []Token
	for _, c := range collectChunks(t, doc, path, 1) {
		got = append(got, recordTokens(t, strings.NewReader(string(c.Data)), path)...)
	}
	if len(want) == 0 {
		t.Fatal("no record tokens in fixture")
	}
	if len(got) != len(want) {
		t.Fatalf("token counts differ: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if !sameToken(got[i], want[i]) {
			t.Fatalf("token %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// recordTokens tokenizes r and collects the tokens of every subtree
// rooted at the given child-axis path.
func recordTokens(t *testing.T, r io.Reader, path []SplitStep) []Token {
	t.Helper()
	tz := NewTokenizer(r)
	defer tz.Release()
	var out []Token
	var stack []string
	match := 0
	inRecord := 0
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("tokenize: %v", err)
		}
		switch tok.Kind {
		case StartElement:
			d := len(stack)
			if inRecord == 0 && match == d && d < len(path) &&
				(path[d].Wildcard || path[d].Name == tok.Name) {
				match = d + 1
				if match == len(path) {
					inRecord = 1
					out = append(out, tok)
					stack = append(stack, tok.Name)
					continue
				}
			}
			if inRecord > 0 {
				out = append(out, tok)
			}
			stack = append(stack, tok.Name)
		case EndElement:
			if inRecord > 0 {
				out = append(out, tok)
				if len(stack) == len(path) {
					inRecord = 0
				}
			}
			stack = stack[:len(stack)-1]
			if match > len(stack) {
				match = len(stack)
			}
		case Text:
			if inRecord > 0 {
				out = append(out, tok.Clone())
			}
		}
	}
}

func sameToken(a, b Token) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Text != b.Text || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	return true
}
