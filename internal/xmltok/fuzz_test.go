package xmltok

import (
	"io"
	"strings"
	"testing"

	"gcx/internal/event"
)

// tokenPathEdges is the edge table of the token path (DESIGN.md §12,
// "The fast-accept token path"): shapes the in-window accepts must
// either take whole or leave to the careful path, and the errors only
// the careful path may produce. TestTokenPathParity runs it on every
// backing and window size; it seeds FuzzTokenizer and
// FuzzBytesReaderParity.
var tokenPathEdges = []string{
	`<a ><b	
/></a >`,
	`<a></a >`,
	`<a/>`,
	`<a><b/><b /><b c="d"/></a>`,
	`<a b="1" c='2'><d e = "f"g='h'/></a>`,
	`<a b="&amp;" c="plain">&lt;</a>`,
	`<a b="x>y" c='"'>t</a>`,
	`<a b="unterminated></a>`,
	`<a b=1></a>`,
	`<a b></a>`,
	`<a b+"v"></a>`,
	`<a/ >`,
	// Names ending exactly at the edge of a 16-, 32- and 63-byte window.
	`<r><` + strings.Repeat("n", 12) + `>x</` + strings.Repeat("n", 12) + `></r>`,
	`<r><` + strings.Repeat("n", 28) + ` k="v"/></r>`,
	`<r><` + strings.Repeat("n", 59) + `/></r>`,
	// End tags that do not close the innermost element.
	`<a><b></a></b>`,
	`<a><b></bb></a>`,
	`<a><bb></b></a>`,
	`</a>`,
	`<a></a></a>`,
	// The nesting ceiling: the deepest accepted document, then one level
	// more by a start tag and by a self-closing one.
	strings.Repeat("<a>", event.MaxDepth-1) + `<b/>` + strings.Repeat("</a>", event.MaxDepth-1),
	strings.Repeat("<a>", event.MaxDepth) + `<b>`,
	strings.Repeat("<a>", event.MaxDepth) + `<b/>`,
	// Content after the document element, and input ending inside a tag.
	`<a/><b/>`,
	`<a></a><b>`,
	`<a></a>text`,
	`<a></a> <!-- c --> `,
	`<a><b`,
	`<a><b c="d"`,
	`<a></`,
	`<a></a`,
	`<`,
}

// FuzzTokenizer: arbitrary bytes must produce either tokens or a clean
// error — never a panic or an infinite loop. Accepted documents must
// round-trip through the serializer.
//
// FuzzSplitter: whenever the Tokenizer accepts a document, the Splitter
// must split it without error, and the record tokens reassembled from
// the chunks must equal the record tokens of the original document —
// the invariant sharded execution rests on — and likewise the aux
// subtrees. Rejected documents must be rejected cleanly (no panic, no
// runaway). Every input runs on three backings — the slice, the default
// reader window, and a 16–63-byte reader window that puts a refill
// inside every construct, so a record's Mark spans refills — which must
// agree on chunk count, chunk bytes, AuxData, and error string and
// offset.
func FuzzSplitter(f *testing.F) {
	seeds := []string{
		`<a><b/></a>`,
		`<a><b>x</b><c/><b k="v">y</b></a>`,
		`<a><x><b>deep</b></x><b><b>nested名</b></b></a>`,
		`<a><!-- c --><b><![CDATA[<>]]></b></a>`,
		`<a><b attr="quoted > gt"/></a>`,
		`<a><b></c></a>`,
		`<a>`,
		`<b/>`,
		// Window-boundary corpus (see FuzzTokenizer).
		`<a><b>` + strings.Repeat("x", 14) + `</b><b/></a>`,
		`<a><b ` + strings.Repeat("k", 11) + `="v"/></a>`,
		// Records and aux subtrees longer than the small window, a
		// terminator straddling a refill inside a kept subtree, and
		// entity whitespace outside the document element cut by one.
		`<a><c>` + strings.Repeat("aux", 30) + `<d/></c><b>` + strings.Repeat("rec", 30) + `</b><c/></a>`,
		`<a><b><![CDATA[` + strings.Repeat("]", 40) + `]]></b><c><!--` + strings.Repeat("-", 40) + `--></c></a>`,
		strings.Repeat("&#32;", 8) + `<a><b/></a>` + strings.Repeat("&#x20;", 8),
		`<a><b>x</b></a>trailing`,
		// One level past the nesting ceiling (event.MaxDepth).
		strings.Repeat("<a>", event.MaxDepth+1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	path := []SplitStep{{Name: "a"}, {Name: "b"}}
	aux := []SplitStep{{Name: "a"}, {Name: "c"}}
	f.Fuzz(func(t *testing.T, doc string) {
		// Reference: does the tokenizer accept the document?
		tz := NewTokenizer(strings.NewReader(doc))
		accepted := true
		for {
			_, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				accepted = false
				break
			}
		}
		tz.Release()

		type result struct {
			chunks []Chunk
			aux    []byte
			err    error
		}
		split := func(sp *Splitter) (r result) {
			sp.SetTargetBytes(1 + len(doc)%64)
			sp.CaptureAux(aux, 1)
			for {
				c, err := sp.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					r.err = err
					break
				}
				r.chunks = append(r.chunks, c)
				if len(r.chunks) > len(doc)+16 {
					t.Fatal("runaway splitter")
				}
			}
			r.aux = sp.AuxData()
			return r
		}
		small := NewSplitter(nil, path)
		small.cur.ResetReader(strings.NewReader(doc), 16+len(doc)%48)
		got := split(NewSplitterBytes([]byte(doc), path))
		for backing, other := range map[string]result{
			"reader":       split(NewSplitter(strings.NewReader(doc), path)),
			"small reader": split(small),
		} {
			if (got.err == nil) != (other.err == nil) || (got.err != nil && got.err.Error() != other.err.Error()) {
				t.Fatalf("error parity: bytes=%v %s=%v\ninput: %q", got.err, backing, other.err, doc)
			}
			if len(got.chunks) != len(other.chunks) {
				t.Fatalf("chunk counts differ: bytes %d %s %d\ninput: %q", len(got.chunks), backing, len(other.chunks), doc)
			}
			for i, c := range got.chunks {
				if o := other.chunks[i]; c.Seq != o.Seq || c.Records != o.Records || string(c.Data) != string(o.Data) {
					t.Fatalf("chunk %d: bytes %+v %s %+v\ninput: %q", i, c, backing, o, doc)
				}
			}
			if string(got.aux) != string(other.aux) {
				t.Fatalf("AuxData: bytes %q %s %q\ninput: %q", got.aux, backing, other.aux, doc)
			}
		}
		if !accepted {
			return // tokenizer-rejected inputs carry no obligations
		}
		if got.err != nil {
			// The splitter skips attribute validation outside records, so
			// it accepts a superset; it must never reject what the
			// tokenizer accepts.
			t.Fatalf("splitter rejected a tokenizable document: %v\ninput: %q", got.err, doc)
		}
		// With aux capture on, chunks leave <a> open for the fragment.
		var records []Token
		for _, c := range got.chunks {
			records = append(records, fuzzRecordTokens(t, string(c.Data)+"</a>", path)...)
		}
		sameTokens(t, "record", doc, records, fuzzRecordTokens(t, doc, path))
		sameTokens(t, "aux", doc, fuzzRecordTokens(t, "<a>"+string(got.aux)+"</a>", aux), fuzzRecordTokens(t, doc, aux))
	})
}

func sameTokens(t *testing.T, what, doc string, got, want []Token) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s token counts differ: got %d want %d\ninput: %q", what, len(got), len(want), doc)
	}
	for i := range want {
		if !sameToken(got[i], want[i]) {
			t.Fatalf("%s token %d: got %+v want %+v\ninput: %q", what, i, got[i], want[i], doc)
		}
	}
}

func fuzzRecordTokens(t *testing.T, doc string, path []SplitStep) []Token {
	t.Helper()
	return recordTokens(t, strings.NewReader(doc), path)
}

// FuzzSkipSubtree: for every document the Tokenizer accepts, calling
// SkipSubtree at an arbitrary StartElement must land on exactly the
// position full tokenization reaches after the matching EndElement —
// the remainder of the token stream is identical — and must never
// reject the document. On documents the Tokenizer rejects, SkipSubtree
// is allowed to accept a superset (it validates nesting but not
// attribute internals or entities), but must never panic or run away.
// Seeded with the CDATA/comment/PI terminator corpus of FuzzSplitter,
// whose KMP-matched patterns ("]]]>", "--->") are the historically
// tricky cases.
func FuzzSkipSubtree(f *testing.F) {
	seeds := []string{
		`<a><b/></a>`,
		`<a><b>x</b><c/><b k="v">y</b></a>`,
		`<a><x><b>deep</b></x><b><b>nested名</b></b></a>`,
		`<a><!-- c --><b><![CDATA[<>]]></b></a>`,
		`<a><b attr="quoted > gt"/></a>`,
		`<a><b><![CDATA[]]]]><![CDATA[>]]></b></a>`,
		`<a><!-- x ---><b/></a>`,
		`<a><?pi data?><b/></a>`,
		`<a><b></c></a>`,
		`<a>`,
		// Window-boundary corpus (see FuzzTokenizer).
		`<a><bbbbbbbbbbbbbbbb>x</bbbbbbbbbbbbbbbb></a>`,
		`<a><b>` + strings.Repeat("t", 15) + `<c/></b></a>`,
		// One level past the nesting ceiling (event.MaxDepth).
		strings.Repeat("<a>", event.MaxDepth+1),
	}
	for _, s := range seeds {
		f.Add(s, uint8(0))
		f.Add(s, uint8(1))
	}
	f.Fuzz(func(t *testing.T, doc string, skipAt uint8) {
		// Reference: full tokenization (engine dialect, whitespace
		// dropped, exactly as the preprojector consumes it).
		ref := NewTokenizer(strings.NewReader(doc))
		var full []Token
		accepted := true
		for {
			tok, err := ref.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				accepted = false
				break
			}
			full = append(full, tok.Clone())
			if len(full) > len(doc)+16 {
				t.Fatal("runaway reference tokenizer")
			}
		}
		ref.Release()

		starts := 0
		for _, tok := range full {
			if tok.Kind == StartElement {
				starts++
			}
		}
		if accepted && starts == 0 {
			return // nothing to skip
		}
		at := 0
		if starts > 0 {
			at = int(skipAt) % starts
		}

		// Expected remainder: full stream minus the skipped subtree.
		var want []Token
		if accepted {
			n, depth, skipping := 0, 0, false
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
					if n == at {
						skipping, depth = true, 1
					}
					n++
				}
			}
		}

		tz := NewTokenizer(strings.NewReader(doc))
		defer tz.Release()
		var got []Token
		n := 0
		for {
			tok, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if accepted {
					t.Fatalf("skipping run rejected an accepted document: %v\ninput: %q skip@%d", err, doc, at)
				}
				return // both reject (or the raw scan accepts a superset — fine either way)
			}
			got = append(got, tok.Clone())
			if len(got) > len(doc)+16 {
				t.Fatal("runaway skipping tokenizer")
			}
			if tok.Kind == StartElement {
				if n == at {
					if err := tz.SkipSubtree(); err != nil {
						if accepted {
							t.Fatalf("SkipSubtree failed on an accepted document: %v\ninput: %q skip@%d", err, doc, at)
						}
						return
					}
				}
				n++
			}
		}
		if !accepted {
			return // superset acceptance carries no stream obligations
		}
		if len(got) != len(want) {
			t.Fatalf("token counts differ: got %d want %d\ninput: %q skip@%d\ngot:  %+v\nwant: %+v", len(got), len(want), doc, at, got, want)
		}
		for i := range want {
			if !sameToken(got[i], want[i]) {
				t.Fatalf("token %d: got %+v want %+v\ninput: %q skip@%d", i, got[i], want[i], doc, at)
			}
		}
	})
}

// FuzzBytesReaderParity is the cursor-parity target: a slice-backed
// tokenizer (NewTokenizerBytes, borrowed text, in-window fast paths)
// and a reader-backed tokenizer over a deliberately tiny window (every
// construct straddles refill boundaries) must produce identical token
// streams AND identical errors — message and offset — including across
// a SkipSubtree at an arbitrary StartElement, which exercises the raw
// skip scanner's in-window and refill shapes against each other.
func FuzzBytesReaderParity(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a b="c">x &amp; y</a>`,
		`<a><b>nested</b><c k="v">t</c></a>`,
		`<aaaaaaaaaaaaaaaaaaaa>x</aaaaaaaaaaaaaaaaaaaa>`,
		`<a><![CDATA[` + strings.Repeat("]", 17) + `]]></a>`,
		`<a q="` + strings.Repeat("v", 12) + `>quoted">t</a>`,
		`<a>` + strings.Repeat("x", 13) + `&amp;&#x3C;done</a>`,
		`<a><b></c></a>`,
		`<a x='1'`,
		"<a>\xff\xfe</a>",
		// One level past the nesting ceiling (event.MaxDepth).
		strings.Repeat("<a>", event.MaxDepth+1),
	}
	for _, s := range append(seeds, tokenPathEdges...) {
		f.Add(s, uint8(0), uint8(0), false)
		f.Add(s, uint8(3), uint8(1), true)
	}
	f.Fuzz(func(t *testing.T, doc string, sizeSeed, skipAt uint8, keepWS bool) {
		run := func(tz *Tokenizer) ([]Token, error) {
			defer tz.Release()
			tz.KeepWhitespace = keepWS
			var toks []Token
			starts := 0
			for {
				tok, err := tz.Next()
				if err == io.EOF {
					return toks, nil
				}
				if err != nil {
					return toks, err
				}
				toks = append(toks, tok.Clone())
				if len(toks) > len(doc)+16 {
					t.Fatal("runaway tokenizer")
				}
				if tok.Kind == StartElement {
					if starts == int(skipAt) {
						if err := tz.SkipSubtree(); err != nil {
							return toks, err
						}
					}
					starts++
				}
			}
		}
		gotB, errB := run(NewTokenizerBytes([]byte(doc)))
		gotR, errR := run(NewTokenizerWindow(strings.NewReader(doc), 16+int(sizeSeed)%48))

		if (errB == nil) != (errR == nil) || (errB != nil && errB.Error() != errR.Error()) {
			t.Fatalf("error parity: bytes=%v reader=%v\ninput: %q skip@%d keepWS=%v", errB, errR, doc, skipAt, keepWS)
		}
		if len(gotB) != len(gotR) {
			t.Fatalf("token counts differ: bytes %d reader %d\ninput: %q skip@%d\nbytes:  %+v\nreader: %+v", len(gotB), len(gotR), doc, skipAt, gotB, gotR)
		}
		for i := range gotB {
			if !sameToken(gotB[i], gotR[i]) {
				t.Fatalf("token %d: bytes %+v reader %+v\ninput: %q skip@%d", i, gotB[i], gotR[i], doc, skipAt)
			}
		}
	})
}

func FuzzTokenizer(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a b="c">x &amp; y</a>`,
		`<?xml version="1.0"?><!DOCTYPE a><a><!-- c --><![CDATA[<>]]></a>`,
		`<a><b></a></b>`,
		`&#x41;`,
		`<a`,
		`</a>`,
		"<a>\x00\xff</a>",
		`<a x='1' x="2"/>`,
		// Window-boundary corpus: structural characters placed so they
		// straddle the 16/64-byte refill edges of a small reader window.
		`<aaaaaaaaaaaaaaaaaaaa>x</aaaaaaaaaaaaaaaaaaaa>`,
		`<a>` + strings.Repeat("x", 13) + `&amp;&#x3C;done</a>`,
		`<a><![CDATA[` + strings.Repeat("]", 17) + `]]></a>`,
		`<a q="` + strings.Repeat("v", 12) + `>quoted">t</a>`,
		`<!--` + strings.Repeat("-", 15) + `--><a/>`,
		// One level past the nesting ceiling (event.MaxDepth).
		strings.Repeat("<a>", event.MaxDepth+1),
	}
	for _, s := range append(seeds, tokenPathEdges...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		tz := NewTokenizer(strings.NewReader(doc))
		tz.KeepWhitespace = true
		var toks []Token
		for i := 0; ; i++ {
			tok, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // clean rejection
			}
			toks = append(toks, tok.Clone())
			if i > len(doc)+16 {
				t.Fatalf("more tokens than input bytes: runaway tokenizer")
			}
		}
		// accepted documents must serialize and re-tokenize cleanly
		var out strings.Builder
		ser := NewSerializer(&out)
		for _, tok := range toks {
			ser.Token(tok)
		}
		if err := ser.Flush(); err != nil {
			t.Fatal(err)
		}
		tz2 := NewTokenizer(strings.NewReader(out.String()))
		tz2.KeepWhitespace = true
		for {
			_, err := tz2.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("serializer output does not re-tokenize: %v\ninput: %q\noutput: %q", err, doc, out.String())
			}
		}
	})
}
