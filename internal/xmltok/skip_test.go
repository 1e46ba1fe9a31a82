package xmltok

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"unsafe"
)

// collectAfterSkip tokenizes doc, calling SkipSubtree on the first
// StartElement named skipAt, and returns the tokens delivered plus the
// tokenizer's skip counters.
func collectAfterSkip(t *testing.T, doc, skipAt string) ([]Token, *Tokenizer, error) {
	t.Helper()
	tz := NewTokenizer(strings.NewReader(doc))
	var toks []Token
	skipped := false
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return toks, tz, nil
		}
		if err != nil {
			return toks, tz, err
		}
		toks = append(toks, tok.Clone())
		if !skipped && tok.Kind == StartElement && tok.Name == skipAt {
			skipped = true
			if err := tz.SkipSubtree(); err != nil {
				return toks, tz, err
			}
		}
	}
}

func TestSkipSubtreeLandsAtEndTag(t *testing.T) {
	const doc = `<a><skip><x>text</x><y k="v">more<z/></y></skip><after>tail</after></a>`
	toks, tz, err := collectAfterSkip(t, doc, "skip")
	if err != nil {
		t.Fatal(err)
	}
	// Delivered: <a>, <skip>, then directly <after>, text, </after>, </a>.
	want := []string{"a", "skip", "after", "tail", "after", "a"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %+v, want %d", len(toks), toks, len(want))
	}
	if toks[2].Name != "after" || toks[3].Text != "tail" {
		t.Fatalf("stream after skip wrong: %+v", toks)
	}
	if tz.SkipStats().SubtreesSkipped != 1 {
		t.Fatalf("subtrees = %d", tz.SkipStats().SubtreesSkipped)
	}
	// <x>, </x>, <y>, <z/> (2), </y>, </skip> = 7 tags
	if tz.SkipStats().TagsSkipped != 7 {
		t.Fatalf("tags skipped = %d, want 7", tz.SkipStats().TagsSkipped)
	}
	if tz.SkipStats().BytesSkipped != int64(len(`<x>text</x><y k="v">more<z/></y></skip>`)) {
		t.Fatalf("bytes skipped = %d", tz.SkipStats().BytesSkipped)
	}
	if tz.Depth() != 0 {
		t.Fatalf("depth = %d after full read", tz.Depth())
	}
}

func TestSkipSubtreeSelfClosing(t *testing.T) {
	toks, tz, err := collectAfterSkip(t, `<a><skip/><b/></a>`, "skip")
	if err != nil {
		t.Fatal(err)
	}
	// The synthesized </skip> is consumed silently.
	want := []struct {
		kind Kind
		name string
	}{{StartElement, "a"}, {StartElement, "skip"}, {StartElement, "b"}, {EndElement, "b"}, {EndElement, "a"}}
	if len(toks) != len(want) {
		t.Fatalf("got %+v", toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Name != w.name {
			t.Fatalf("token %d = %+v, want %+v", i, toks[i], w)
		}
	}
	if tz.SkipStats().BytesSkipped != 0 || tz.SkipStats().TagsSkipped != 1 || tz.SkipStats().SubtreesSkipped != 1 {
		t.Fatalf("counters: bytes=%d tags=%d subtrees=%d", tz.SkipStats().BytesSkipped, tz.SkipStats().TagsSkipped, tz.SkipStats().SubtreesSkipped)
	}
}

func TestSkipSubtreeDocumentElement(t *testing.T) {
	// Skipping the document element consumes the whole document.
	toks, _, err := collectAfterSkip(t, `<a><b>deep<c/></b></a>`, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Name != "a" {
		t.Fatalf("got %+v", toks)
	}
}

func TestSkipSubtreeAwkwardContent(t *testing.T) {
	// CDATA with ']]>'-adjacent content, comments with '--->', PIs,
	// attribute values carrying '>' and quotes, nested same-name tags.
	const doc = `<a><skip><skip><![CDATA[</skip>]]]>x<!-- comment ---><?pi ?>` +
		`<t q="a>b" p='c"d'>&bogus;</t></skip>trail</skip><b/></a>`
	toks, _, err := collectAfterSkip(t, doc, "skip")
	if err != nil {
		t.Fatal(err)
	}
	// &bogus; is inside the skipped region: the raw scan must NOT
	// reject it (no entity resolution during skips).
	var after []string
	for _, tok := range toks[2:] {
		after = append(after, tok.Name)
	}
	if len(toks) != 5 || toks[2].Name != "b" {
		t.Fatalf("stream after skip: %v (%+v)", after, toks)
	}
}

func TestSkipSubtreeErrors(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"truncated", `<a><skip><x>`},
		{"mismatch", `<a><skip><x></y></skip></a>`},
		{"crossing", `<a><skip></a>`},
		{"badComment", `<a><skip><!-bad--></skip></a>`},
		{"badCDATA", `<a><skip><![CDAT[x]]></skip></a>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := collectAfterSkip(t, tc.doc, "skip")
			if err == nil {
				t.Fatalf("no error for %q", tc.doc)
			}
			if _, ok := err.(*SyntaxError); !ok {
				t.Fatalf("error %v is not a SyntaxError", err)
			}
		})
	}
}

// TestSkipSubtreeNoOpenElement pins the caller contract from the other
// side: with nothing open — before the first token, after the document
// element has closed — SkipSubtree is an error.
func TestSkipSubtreeNoOpenElement(t *testing.T) {
	for _, pulls := range []int{0, 4} {
		tz := NewTokenizer(strings.NewReader(`<a><b/></a>`))
		for i := 0; i < pulls; i++ {
			if _, err := tz.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tz.SkipSubtree(); err == nil {
			t.Fatalf("SkipSubtree after %d tokens with no open element must fail", pulls)
		}
		tz.Release()
	}
}

func TestSkipSubtreeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sb strings.Builder
	sb.WriteString("<a><skip>")
	for i := 0; i < 100000; i++ {
		sb.WriteString("<x>y</x>")
	}
	sb.WriteString("</skip></a>")
	tz := NewTokenizer(strings.NewReader(sb.String()))
	defer tz.Release()
	tz.SetContext(ctx)
	for i := 0; i < 2; i++ {
		if _, err := tz.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := tz.SkipSubtree(); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSkipSubtreeParityPositions runs SkipSubtree at every possible
// element of a corpus of tricky documents and checks the remainder of
// the token stream is exactly what full tokenization yields after the
// matching EndElement.
func TestSkipSubtreeParityPositions(t *testing.T) {
	docs := []string{
		`<a><b/></a>`,
		`<a><b>x</b><c/><b k="v">y</b></a>`,
		`<a><x><b>deep</b></x><b><b>nested名</b></b></a>`,
		`<a><!-- c --><b><![CDATA[<>]]></b></a>`,
		`<a><b attr="quoted > gt"/></a>`,
		`<a>t1<b>t2<c>t3</c>t4</b>t5<d/>t6</a>`,
		`<a><b><![CDATA[]]]]><![CDATA[>]]></b><c/></a>`,
	}
	for _, doc := range docs {
		full := allTokens(t, doc)
		starts := 0
		for _, tok := range full {
			if tok.Kind == StartElement {
				starts++
			}
		}
		for at := 0; at < starts; at++ {
			checkSkipAt(t, doc, full, at)
		}
	}
}

// allTokens tokenizes doc fully (KeepWhitespace off, like the engine).
func allTokens(t *testing.T, doc string) []Token {
	t.Helper()
	tz := NewTokenizer(strings.NewReader(doc))
	defer tz.Release()
	var toks []Token
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return toks
		}
		if err != nil {
			t.Fatalf("reference tokenization failed: %v (doc %q)", err, doc)
		}
		toks = append(toks, tok.Clone())
	}
}

// checkSkipAt skips at the at-th StartElement and compares against the
// reference stream with that element's subtree removed.
func checkSkipAt(t *testing.T, doc string, full []Token, at int) {
	t.Helper()
	// Build the expected stream: reference tokens minus the skipped
	// subtree (exclusive of its StartElement, inclusive of its
	// EndElement).
	var want []Token
	starts, depth := 0, 0
	skipping := false
	for _, tok := range full {
		if skipping {
			switch tok.Kind {
			case StartElement:
				depth++
			case EndElement:
				depth--
				if depth == 0 {
					skipping = false
				}
			}
			continue
		}
		want = append(want, tok)
		if tok.Kind == StartElement {
			if starts == at {
				skipping = true
				depth = 1
			}
			starts++
		}
	}

	tz := NewTokenizer(strings.NewReader(doc))
	defer tz.Release()
	var got []Token
	starts = 0
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("doc %q skip@%d: %v", doc, at, err)
		}
		got = append(got, tok.Clone())
		if tok.Kind == StartElement {
			if starts == at {
				if err := tz.SkipSubtree(); err != nil {
					t.Fatalf("doc %q skip@%d: SkipSubtree: %v", doc, at, err)
				}
			}
			starts++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("doc %q skip@%d: got %d tokens, want %d\ngot:  %+v\nwant: %+v", doc, at, len(got), len(want), got, want)
	}
	for i := range want {
		if !sameToken(got[i], want[i]) {
			t.Fatalf("doc %q skip@%d token %d: got %+v want %+v", doc, at, i, got[i], want[i])
		}
	}
}

// TestSeekEntityErrors: a seek resolves the references in the attribute
// values of the chain and of the sought tag by the entity rule (ref), so
// a bad reference fails with the message full tokenization gives.
func TestSeekEntityErrors(t *testing.T) {
	for _, ref := range []string{"&#zz;", "&#;", "&bogus;", "&abcdefghijklm;"} {
		for _, doc := range []string{
			`<a><b x="` + ref + `"><c/></b></a>`,
			`<a><c x="` + ref + `"/></a>`,
		} {
			msg := func(tz *Tokenizer) string {
				defer tz.Release()
				for {
					_, err := tz.Next()
					var se *SyntaxError
					if errors.As(err, &se) {
						return se.Msg
					}
					if err != nil {
						return err.Error()
					}
				}
			}
			want := msg(NewTokenizerBytes([]byte(doc)))
			for _, tz := range []*Tokenizer{NewTokenizerBytes([]byte(doc)), NewTokenizerWindow(strings.NewReader(doc), 16)} {
				tz.SetSkipper(&seekOnce{sought: []string{"c"}})
				if got := msg(tz); got != want {
					t.Errorf("%s: seeking fails with %q, full tokenization with %q", doc, got, want)
				}
			}
		}
	}
}

// TestSeekBorrowsValues: on the bytes backing, the attribute grammar reads
// a seek's chain and sought tags from the input itself, so their
// entity-free values are borrowed from it, as any other start tag's
// are, and only a decoded one is copied.
func TestSeekBorrowsValues(t *testing.T) {
	doc := []byte(`<a><b><d x="1" y='two'><e z="&amp;" v="4"><c w="3"/></e></d></b></a>`)
	lo := uintptr(unsafe.Pointer(&doc[0]))
	inside := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(doc))
	}
	tz := NewTokenizerBytes(doc)
	defer tz.Release()
	tz.SetSkipper(&seekOnce{at: 1, sought: []string{"c"}})
	values := 0
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tok.Attrs {
			values++
			if decoded := a.Value == "&"; inside(a.Value) == decoded {
				t.Errorf("<%s %s=%q>: borrowed from the input %v, want %v", tok.Name, a.Name, a.Value, decoded, !decoded)
			}
		}
	}
	if values != 5 || tz.SkipStats().BytesSkipped == 0 {
		t.Fatalf("%d values, %+v: the seek did not run", values, tz.SkipStats())
	}
}
