package xmltok

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gcx/internal/cursor"
)

// drain reads all tokens until EOF.
func drain(t *testing.T, tz *Tokenizer) []Token {
	t.Helper()
	var toks []Token
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return toks
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		toks = append(toks, tok.Clone())
	}
}

func TestBasicDocument(t *testing.T) {
	const doc = `<bib><book year="1994"><title>TCP/IP</title></book></bib>`
	toks := drain(t, NewTokenizer(strings.NewReader(doc)))
	want := []Token{
		{Kind: StartElement, Name: "bib"},
		{Kind: StartElement, Name: "book", Attrs: []Attr{{Name: "year", Value: "1994"}}},
		{Kind: StartElement, Name: "title"},
		{Kind: Text, Text: "TCP/IP"},
		{Kind: EndElement, Name: "title"},
		{Kind: EndElement, Name: "book"},
		{Kind: EndElement, Name: "bib"},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("tokens mismatch:\n got %v\nwant %v", toks, want)
	}
}

func TestSelfClosingProducesTwoTokens(t *testing.T) {
	// The paper counts <title/> as two tags (82 tags for 41 nodes).
	toks := drain(t, NewTokenizer(strings.NewReader(`<a><b/><c x="1"/></a>`)))
	want := []Token{
		{Kind: StartElement, Name: "a"},
		{Kind: StartElement, Name: "b"},
		{Kind: EndElement, Name: "b"},
		{Kind: StartElement, Name: "c", Attrs: []Attr{{Name: "x", Value: "1"}}},
		{Kind: EndElement, Name: "c"},
		{Kind: EndElement, Name: "a"},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("tokens mismatch:\n got %v\nwant %v", toks, want)
	}
}

func TestPaperFig3TokenCount(t *testing.T) {
	// Fig. 3: bib with ten <t><author/><title/><price/></t> children is
	// "a total of 82 tags forming 41 document nodes".
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < 10; i++ {
		b.WriteString("<book><author></author><title></title><price></price></book>")
	}
	b.WriteString("</bib>")
	tz := NewTokenizer(strings.NewReader(b.String()))
	toks := drain(t, tz)
	if len(toks) != 82 {
		t.Fatalf("got %d tokens, want 82", len(toks))
	}
	if tz.TokenCount() != 82 {
		t.Fatalf("TokenCount = %d, want 82", tz.TokenCount())
	}
	starts := 0
	for _, tok := range toks {
		if tok.Kind == StartElement {
			starts++
		}
	}
	if starts != 41 {
		t.Fatalf("got %d element nodes, want 41", starts)
	}
}

func TestWhitespaceHandling(t *testing.T) {
	const doc = "<a>\n  <b>x</b>\n</a>"
	toks := drain(t, NewTokenizer(strings.NewReader(doc)))
	for _, tok := range toks {
		if tok.Kind == Text && strings.TrimSpace(tok.Text) == "" {
			t.Fatalf("whitespace-only text not dropped: %q", tok.Text)
		}
	}
	tz := NewTokenizer(strings.NewReader(doc))
	tz.KeepWhitespace = true
	toks = drain(t, tz)
	found := false
	for _, tok := range toks {
		if tok.Kind == Text && strings.TrimSpace(tok.Text) == "" {
			found = true
		}
	}
	if !found {
		t.Fatal("KeepWhitespace did not preserve whitespace text")
	}
}

func TestEntitiesAndCDATA(t *testing.T) {
	const doc = `<a p="x&amp;y">1 &lt; 2 &#65;&#x42;<![CDATA[<raw>&amp;]]></a>`
	toks := drain(t, NewTokenizer(strings.NewReader(doc)))
	if len(toks) != 4 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if v, _ := toks[0].Attr("p"); v != "x&y" {
		t.Errorf("attr = %q, want x&y", v)
	}
	if toks[1].Text != "1 < 2 AB" {
		t.Errorf("text = %q", toks[1].Text)
	}
	if toks[2].Text != "<raw>&amp;" {
		t.Errorf("cdata = %q", toks[2].Text)
	}
}

// TestRepeatedPrefixTerminators: a CDATA section ending "]]]>" has
// content "x]" (its terminator overlaps its own prefix), and a comment
// ending "--->" is legal to skip; both need the KMP fallback in
// patAdvance rather than a reset-on-mismatch scan.
func TestRepeatedPrefixTerminators(t *testing.T) {
	const doc = `<a><![CDATA[x]]]><!-- dash ---></a>`
	toks := drain(t, NewTokenizer(strings.NewReader(doc)))
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[1].Text != "x]" {
		t.Errorf("cdata = %q, want \"x]\"", toks[1].Text)
	}
}

func TestSkippedConstructs(t *testing.T) {
	const doc = `<?xml version="1.0"?><!DOCTYPE a><!-- c --><a><!-- <b> --><?pi data?>x</a>`
	toks := drain(t, NewTokenizer(strings.NewReader(doc)))
	want := []Token{
		{Kind: StartElement, Name: "a"},
		{Kind: Text, Text: "x"},
		{Kind: EndElement, Name: "a"},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("tokens mismatch:\n got %v\nwant %v", toks, want)
	}
}

// TestSelfClosingTokens checks that the two tokens of a self-closing tag
// count, nest and close like an explicit pair.
func TestSelfClosingTokens(t *testing.T) {
	tz := NewTokenizer(strings.NewReader("<a><b/></a>"))
	defer tz.Release()
	want := []struct {
		tok   Token
		depth int
	}{
		{Token{Kind: StartElement, Name: "a"}, 1},
		{Token{Kind: StartElement, Name: "b"}, 2},
		{Token{Kind: EndElement, Name: "b"}, 1},
		{Token{Kind: EndElement, Name: "a"}, 0},
	}
	for i, w := range want {
		tok, err := tz.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tok, w.tok) || tz.Depth() != w.depth || tz.TokenCount() != int64(i+1) {
			t.Fatalf("token %d = %v at depth %d, count %d; want %v at depth %d", i, tok, tz.Depth(), tz.TokenCount(), w.tok, w.depth)
		}
	}
}

// TestSelfClosingAllocs: the EndElement of a self-closing tag is a flag
// in the tokenizer, not a heap Token — 10 000 of them used to cost
// 10 000 allocations.
func TestSelfClosingAllocs(t *testing.T) {
	doc := []byte("<r>" + strings.Repeat("<a/>", 10_000) + "</r>")
	allocs := testing.AllocsPerRun(5, func() {
		tz := NewTokenizerBytes(doc)
		defer tz.Release()
		for n := 0; ; n++ {
			if _, err := tz.Next(); err == io.EOF {
				if n != 20_002 {
					t.Fatalf("%d tokens, want 20002", n)
				}
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 4 {
		t.Fatalf("%.0f allocations for 10 000 self-closing tags, want O(1)", allocs)
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := []string{
		`<a><b></a></b>`,
		`<a>`,
		`<a></b>`,
		`text only`,
		`<a></a><b></b>`,
		`<a x=1></a>`,
		`<a>&unknown;</a>`,
		`<a x="unterminated></a>`,
	}
	for _, doc := range cases {
		tz := NewTokenizer(strings.NewReader(doc))
		var err error
		for err == nil {
			_, err = tz.Next()
		}
		if err == io.EOF {
			t.Errorf("input %q: expected syntax error, got clean EOF", doc)
		}
	}
}

func TestDepthTracking(t *testing.T) {
	tz := NewTokenizer(strings.NewReader("<a><b><c/></b></a>"))
	maxDepth := 0
	for {
		_, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tz.Depth() > maxDepth {
			maxDepth = tz.Depth()
		}
	}
	if maxDepth != 3 {
		t.Fatalf("max depth = %d, want 3", maxDepth)
	}
	if tz.Depth() != 0 {
		t.Fatalf("final depth = %d, want 0", tz.Depth())
	}
}

// genDoc emits a random well-formed document for round-trip testing.
func genDoc(r *rand.Rand, depth int, b *strings.Builder) {
	names := []string{"a", "bb", "ccc", "item", "x-y"}
	name := names[r.Intn(len(names))]
	b.WriteString("<" + name)
	for i := r.Intn(3); i > 0; i-- {
		b.WriteString(` at` + string(rune('a'+r.Intn(3))) + `="v&amp;` + string(rune('0'+r.Intn(10))) + `"`)
	}
	b.WriteString(">")
	for i := r.Intn(4); i > 0 && depth < 5; i-- {
		if r.Intn(2) == 0 {
			genDoc(r, depth+1, b)
		} else {
			b.WriteString("t" + string(rune('0'+r.Intn(10))) + "&lt;x")
		}
	}
	b.WriteString("</" + name + ">")
}

// TestRoundTripQuick: tokenize → serialize → tokenize yields identical
// token streams (property-based).
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		genDoc(r, 0, &b)
		doc := b.String()

		tz1 := NewTokenizer(strings.NewReader(doc))
		tz1.KeepWhitespace = true
		var toks1 []Token
		var out bytes.Buffer
		ser := NewSerializer(&out)
		for {
			tok, err := tz1.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Logf("doc %q: %v", doc, err)
				return false
			}
			toks1 = append(toks1, tok.Clone())
			ser.Token(tok)
		}
		if err := ser.Flush(); err != nil {
			return false
		}
		tz2 := NewTokenizer(bytes.NewReader(out.Bytes()))
		tz2.KeepWhitespace = true
		var toks2 []Token
		for {
			tok, err := tz2.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Logf("reserialized %q: %v", out.String(), err)
				return false
			}
			toks2 = append(toks2, tok.Clone())
		}
		if !reflect.DeepEqual(toks1, toks2) {
			t.Logf("round trip mismatch for %q", doc)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializerEscaping(t *testing.T) {
	var out bytes.Buffer
	s := NewSerializer(&out)
	s.StartElement("a", []Attr{{Name: "q", Value: `<"&>`}})
	s.Text(`a<b>&c`)
	s.EndElement("a")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `<a q="&lt;&quot;&amp;&gt;">a&lt;b&gt;&amp;c</a>`
	if out.String() != want {
		t.Fatalf("got %q want %q", out.String(), want)
	}
	if s.BytesWritten() != int64(len(want)) {
		t.Fatalf("BytesWritten = %d, want %d", s.BytesWritten(), len(want))
	}
}

func TestEscapeText(t *testing.T) {
	if got := EscapeText("a<b&c>d"); got != "a&lt;b&amp;c&gt;d" {
		t.Fatalf("EscapeText = %q", got)
	}
	if got := EscapeText("plain"); got != "plain" {
		t.Fatalf("EscapeText = %q", got)
	}
}

// TestAttrListsSurviveTheirChunk: attribute lists are carved from
// shared chunks, and a token owns its list for good. Lists that fill a
// chunk, straddle a chunk boundary or outgrow a whole chunk must all
// read back intact after the rest of the document has been tokenized,
// and appending to one must not reach its neighbour.
func TestAttrListsSurviveTheirChunk(t *testing.T) {
	sizes := []int{1, attrChunkSize - 2, 3, 0, 2*attrChunkSize + 5, 1, attrChunkSize, 2}
	var doc strings.Builder
	doc.WriteString("<r>")
	for e, n := range sizes {
		fmt.Fprintf(&doc, "<e%d", e)
		for a := 0; a < n; a++ {
			fmt.Fprintf(&doc, ` a%d="%d.%d"`, a, e, a)
		}
		doc.WriteString("/>")
	}
	doc.WriteString("</r>")

	for _, tz := range []*Tokenizer{NewTokenizer(strings.NewReader(doc.String())), NewTokenizerBytes([]byte(doc.String()))} {
		var starts []Token
		for _, tok := range drain(t, tz) {
			if tok.Kind == StartElement && tok.Name != "r" {
				starts = append(starts, tok)
			}
		}
		if len(starts) != len(sizes) {
			t.Fatalf("%d start tags, want %d", len(starts), len(sizes))
		}
		for e, tok := range starts {
			if len(tok.Attrs) != sizes[e] || cap(tok.Attrs) != sizes[e] {
				t.Fatalf("<e%d>: %d attributes (cap %d), want %d, clipped", e, len(tok.Attrs), cap(tok.Attrs), sizes[e])
			}
			_ = append(tok.Attrs, Attr{Name: "clobber"})
		}
		for e, tok := range starts {
			for a, attr := range tok.Attrs {
				if attr.Name != fmt.Sprintf("a%d", a) || attr.Value != fmt.Sprintf("%d.%d", e, a) {
					t.Fatalf("<e%d> attribute %d reads %s=%q", e, a, attr.Name, attr.Value)
				}
			}
		}
		tz.Release()
	}
}

// TestTokenLifetimeOnReader pins DESIGN.md §12 "Token lifetime on the
// reader backing" at window sizes that put every tag on the careful path
// and at the default one: names and attribute values — entity-decoded
// ones, read one after the other through the same scratch, included —
// outlive the stream, while a Text kept without Clone is overwritten by
// the next pull.
func TestTokenLifetimeOnReader(t *testing.T) {
	const doc = `<r><e a="1" b="x&amp;y" c='&lt;' d="plain">text &amp; more</e><e a="2"><![CDATA[c<d]]></e>tail</r>`
	for _, size := range []int{16, 23, 64, 0} {
		tz := NewTokenizerWindow(strings.NewReader(doc), size)
		if !tz.Volatile() {
			t.Fatal("a reader-backed tokenizer is not volatile")
		}
		var kept []Token // deliberately not cloned
		for {
			tok, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, tok)
		}
		tz.Release()
		var got strings.Builder
		texts := []string{"text & more", "c<d", "tail"}
		for _, tok := range kept {
			switch tok.Kind {
			case StartElement:
				fmt.Fprintf(&got, "<%s%v>", tok.Name, tok.Attrs)
			case EndElement:
				fmt.Fprintf(&got, "</%s>", tok.Name)
			case Text:
				// Poisoned, or refilled over since: anything but the text.
				if want := texts[0]; tok.Text == want {
					t.Errorf("window %d: the kept text view %q survived the stream", size, want)
				}
				texts = texts[1:]
				fmt.Fprintf(&got, "#%d", len(tok.Text))
			}
		}
		const want = `<r[]><e[{a 1} {b x&y} {c <} {d plain}]>#11</e><e[{a 2}]>#3</e>#4</r>`
		if got.String() != want {
			t.Errorf("window %d: kept tokens read\n %s\nwant\n %s", size, got.String(), want)
		}
	}
	if tz := NewTokenizerBytes([]byte(doc)); tz.Volatile() {
		t.Error("a byte-backed tokenizer is volatile")
	}
}

// TestReleaseDropsLargeScratch: one huge text node must not leave the
// pooled tokenizer holding a scratch of that size for every later run.
func TestReleaseDropsLargeScratch(t *testing.T) {
	tz := NewTokenizer(strings.NewReader("<a>" + strings.Repeat("x", 2*cursor.MaxScratch) + "</a>"))
	if toks := drain(t, tz); len(toks) != 3 {
		t.Fatalf("%d tokens", len(toks))
	}
	if cap(tz.textBuf) < 2*cursor.MaxScratch {
		t.Fatalf("the text went through a %d-byte scratch: the test does not reach the case", cap(tz.textBuf))
	}
	tz.Release()
	// Whichever tokenizer the pool hands out next, the released one or a
	// fresh one, it carries no more than the ceiling.
	next := NewTokenizer(strings.NewReader("<a/>"))
	defer next.Release()
	if cap(tz.textBuf) > cursor.MaxScratch || cap(next.textBuf) > cursor.MaxScratch {
		t.Errorf("pooled scratch: released %d bytes, reacquired %d, ceiling %d", cap(tz.textBuf), cap(next.textBuf), cursor.MaxScratch)
	}
}

// TestReleaseDropsSkipper: the skipper is a run's preprojector, and
// through it the run's whole buffer, so neither a released tokenizer
// waiting in the pool nor one handed out again may still hold it.
func TestReleaseDropsSkipper(t *testing.T) {
	dead := DeadNames{"b": true}
	tz := NewTokenizerBytes([]byte(`<a><b/><c/></a>`))
	tz.SetSkipper(dead)
	if toks := drain(t, tz); len(toks) != 4 {
		t.Fatalf("%d tokens, want <a> <c> </c> </a>", len(toks))
	}
	tz.reset()
	if tz.skipper != nil {
		t.Error("reset kept the skipper")
	}
	tz.SetSkipper(dead)
	tz.Release()
	if tz.skipper != nil {
		t.Error("Release kept the skipper")
	}
}

// TestReleaseDropsLargeRawScratch: the raw scan's scratch — a tag body
// spanning windows, skipElement's name stack — obeys the same ceiling.
// One skipped subtree whose element name alone is twice the ceiling
// grows both.
func TestReleaseDropsLargeRawScratch(t *testing.T) {
	name := strings.Repeat("n", 2*cursor.MaxScratch)
	tz := NewTokenizer(strings.NewReader("<r><a><" + name + "></" + name + "></a></r>"))
	for range 2 { // <r>, <a>
		if _, err := tz.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tz.SkipSubtree(); err != nil {
		t.Fatal(err)
	}
	if cap(tz.tag) < 2*cursor.MaxScratch || cap(tz.nameBuf) < 2*cursor.MaxScratch {
		t.Fatalf("tag scratch %d, name stack %d bytes: the test does not reach the case", cap(tz.tag), cap(tz.nameBuf))
	}
	tz.Release()
	next := NewTokenizer(strings.NewReader("<a/>"))
	defer next.Release()
	for _, tk := range []*Tokenizer{tz, next} {
		if cap(tk.tag) > cursor.MaxScratch || cap(tk.nameBuf) > cursor.MaxScratch {
			t.Errorf("pooled scratch: tag %d bytes, name stack %d, ceiling %d", cap(tk.tag), cap(tk.nameBuf), cursor.MaxScratch)
		}
	}
}
