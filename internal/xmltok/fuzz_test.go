package xmltok

import (
	"io"
	"slices"
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
// the invariant sharded execution rests on. Rejected documents must be
// rejected cleanly (no panic, no runaway). Every input is cut twice, at
// /a/b and at /a/descendant::b (records are the outermost b elements at
// any depth), each on three backings — the slice, the default reader
// window, and a 16–63-byte reader window that puts a refill inside every
// construct, so a record's Mark spans refills — which must agree on
// chunk count, chunk bytes, and error string and offset.
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
		// Records and skipped subtrees longer than the small window, a
		// terminator straddling a refill inside a kept subtree, and
		// entity whitespace outside the document element cut by one.
		`<a><c>` + strings.Repeat("off", 30) + `<d/></c><b>` + strings.Repeat("rec", 30) + `</b><c/></a>`,
		`<a><b><![CDATA[` + strings.Repeat("]", 40) + `]]></b><c><!--` + strings.Repeat("-", 40) + `--></c></a>`,
		strings.Repeat("&#32;", 8) + `<a><b/></a>` + strings.Repeat("&#x20;", 8),
		`<a><b>x</b></a>trailing`,
		// One level past the nesting ceiling (event.MaxDepth).
		strings.Repeat("<a>", event.MaxDepth+1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	paths := [][]SplitStep{
		{{Name: "a"}, {Name: "b"}},
		{{Name: "a"}, {Name: "b", Descendant: true}},
	}
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

		for _, path := range paths {
			splitParity(t, doc, path, accepted)
		}
	})
}

// splitParity is FuzzSplitter's check of one partition path.
func splitParity(t *testing.T, doc string, path []SplitStep, accepted bool) {
	type result struct {
		chunks []Chunk
		err    error
	}
	split := func(sp *Splitter) (r result) {
		sp.SetTargetBytes(1 + len(doc)%64)
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
	var records []Token
	for _, c := range got.chunks {
		records = append(records, recordTokens(t, strings.NewReader(string(c.Data)), path)...)
	}
	want := recordTokens(t, strings.NewReader(doc), path)
	if len(records) != len(want) {
		t.Fatalf("record token counts differ: got %d want %d\ninput: %q", len(records), len(want), doc)
	}
	for i := range want {
		if !sameToken(records[i], want[i]) {
			t.Fatalf("record token %d: got %+v want %+v\ninput: %q", i, records[i], want[i], doc)
		}
	}
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

// seekOnce is FuzzSeek's skipper: it answers Seek with sought for the
// at-th question and Live for every other.
type seekOnce struct {
	at, asked int
	sought    []string
}

func (s *seekOnce) Child(string) (event.Verdict, []string) {
	s.asked++
	if s.asked-1 == s.at {
		return event.Seek, s.sought
	}
	return event.Live, nil
}

// FuzzSeek pins the seek (DESIGN.md §7, "Seeking below descendant
// steps") against full tokenization, on random documents and random
// sought sets: a subset of the document's element names, picked by the
// bits of pick, and extra. The at-th start tag is answered Seek, every
// other Live. If the element holds a start tag named in the set, the
// stream must be the full one without the tokens between the element's
// start tag and the first such tag, but for the start tags of the
// elements still open there — the chain, with its attributes — and
// bytes_skipped must be the distance from the element's start tag to
// that tag's '<'. If it holds none, the element must be dropped as
// SkipSubtree drops it. With thenSkip set, the consumer calls
// SkipSubtree on the element as soon as it is delivered, which must
// land after its end as without the seek. The bytes backing and a
// 16–63-byte reader
// window must agree on everything, errors included; errors are
// one-sided, as in FuzzSkipSubtree.
func FuzzSeek(f *testing.F) {
	seeds := []string{
		`<a><b><c/></b></a>`,
		`<a x="1"><skel1 k="v"><skel2 q='&amp;&#x41;'><c/></skel2></skel1><c>t</c></a>`,
		`<r><a><x><a><b>1</b></a></x><b>2</b></a><b/></r>`,
		`<site><regions><africa><item id="i1"><name>n</name><description><item/></description></item></africa></regions></site>`,
		`<a><!-- <c> --><?pi <c/>?><![CDATA[<c>]]><b q="<c>" r='>'><c/></b></a>`,
		`<a><b><bb/><b/></b></a>`,
		`<a>` + strings.Repeat("t", 13) + `<bbbbbbbbbbbbbbbbbbbb k="v"><c/></bbbbbbbbbbbbbbbbbbbb></a>`,
		`<a><b><c x="1"`,
		`<a><b x="&bogus;"><c/></b></a>`,
		`<a><b x="1"y="2"><c/></b></a>`,
	}
	for _, s := range seeds {
		f.Add(s, uint8(0), uint8(0), "c", uint8(0), false)
		f.Add(s, uint8(0), uint8(0), "c", uint8(0), true)
		f.Add(s, uint8(0), uint8(0xff), "c", uint8(0), false)
		f.Add(s, uint8(1), uint8(0x04), "", uint8(69), false)
	}
	f.Fuzz(func(t *testing.T, doc string, at, pick uint8, extra string, sizeSeed uint8, thenSkip bool) {
		keepWS := sizeSeed&64 != 0
		// Reference: full tokenization, with the offset after each token.
		var full []Token
		var after []int64
		accepted := true
		ref := NewTokenizerBytes([]byte(doc))
		ref.KeepWhitespace = keepWS
		for {
			tok, err := ref.Next()
			if err != nil {
				accepted = err == io.EOF
				break
			}
			full = append(full, tok)
			after = append(after, ref.cur.Offset())
			if len(full) > len(doc)+16 {
				t.Fatal("runaway reference tokenizer")
			}
		}
		ref.Release()

		var starts []int
		var sought []string
		for i, tok := range full {
			if tok.Kind != StartElement {
				continue
			}
			starts = append(starts, i)
			if !slices.Contains(sought, tok.Name) {
				sought = append(sought, tok.Name)
			}
		}
		if accepted && len(starts) == 0 {
			return
		}
		held := 0
		if len(starts) > 0 {
			held = int(at) % len(starts)
		}
		sought = slices.DeleteFunc(sought, func(string) bool { pick = pick>>1 | pick<<7; return pick&1 == 0 })
		if extra != "" {
			sought = append(sought, extra)
		}
		if len(sought) == 0 {
			return // a skipper never answers Seek with nothing to seek
		}

		type result struct {
			toks    []Token
			count   int64
			skipped event.SkipStats
			err     string
		}
		run := func(tz *Tokenizer) (r result) {
			defer tz.Release()
			tz.KeepWhitespace = keepWS
			seeker := &seekOnce{at: held, sought: sought}
			tz.SetSkipper(seeker)
			for skip := thenSkip; ; {
				tok, err := tz.Next()
				if err == nil && skip && seeker.asked > held {
					// The first token after the seek is the element if the
					// seek found a sought tag.
					if skip = false; seeker.asked == held+1 && tok.Kind == StartElement {
						err = tz.SkipSubtree()
					}
				}
				if err != nil {
					if err != io.EOF {
						r.err = err.Error()
					}
					r.count, r.skipped = tz.TokenCount(), tz.SkipStats()
					return r
				}
				r.toks = append(r.toks, tok.Clone())
				if len(r.toks) > len(doc)+16 {
					t.Fatal("runaway seeking tokenizer")
				}
			}
		}
		b := run(NewTokenizerBytes([]byte(doc)))
		w := run(NewTokenizerWindow(strings.NewReader(doc), 16+int(sizeSeed)%48))
		if b.err != w.err || b.count != w.count || b.skipped != w.skipped || len(b.toks) != len(w.toks) {
			t.Fatalf("bytes and window disagree: %d tokens, count %d, %+v, %q; window %d, %d, %+v, %q\ninput: %q seek@%d %q",
				len(b.toks), b.count, b.skipped, b.err, len(w.toks), w.count, w.skipped, w.err, doc, held, sought)
		}
		for i := range b.toks {
			if !sameToken(b.toks[i], w.toks[i]) {
				t.Fatalf("token %d: bytes %+v window %+v\ninput: %q seek@%d %q", i, b.toks[i], w.toks[i], doc, held, sought)
			}
		}
		if !accepted {
			return // superset acceptance carries no stream obligations
		}
		if b.err != "" {
			t.Fatalf("seeking run rejected an accepted document: %s\ninput: %q seek@%d %q", b.err, doc, held, sought)
		}

		// Expected: h is the seeked element's start tag, e its end tag,
		// m the first sought start tag between them (or e), chain the
		// start tags open at m.
		h := starts[held]
		e, m := h+1, -1
		var chain []int
		for depth := 1; ; e++ {
			switch tok := full[e]; tok.Kind {
			case StartElement:
				if m < 0 && slices.Contains(sought, tok.Name) {
					m = e
				}
				if m < 0 {
					chain = append(chain, e)
				}
				depth++
			case EndElement:
				if m < 0 && len(chain) > 0 {
					chain = chain[:len(chain)-1]
				}
				depth--
			}
			if depth == 0 {
				break
			}
		}
		tags := func(toks []Token) (n int64) {
			for _, tok := range toks {
				if tok.Kind != Text {
					n++
				}
			}
			return n
		}
		want := append([]Token{}, full[:h]...)
		var skipped event.SkipStats
		switch {
		case m < 0:
			want = append(want, full[e+1:]...)
			skipped = event.SkipStats{BytesSkipped: after[e] - after[h], TagsSkipped: tags(full[h : e+1]), SubtreesSkipped: 1}
		case thenSkip:
			want = append(append(want, full[h]), full[e+1:]...)
			skipped = event.SkipStats{BytesSkipped: after[e] - after[h], TagsSkipped: tags(full[h+1 : e+1]), SubtreesSkipped: 1}
		default:
			want = append(want, full[h])
			for _, c := range chain {
				want = append(want, full[c])
			}
			want = append(want, full[m:]...)
			lt := startTagAt(doc, after[m-1])
			skipped = event.SkipStats{BytesSkipped: lt - after[h], TagsSkipped: tags(full[h+1:m]) - int64(len(chain))}
		}
		if b.skipped != skipped || b.count != int64(len(want)) || len(b.toks) != len(want) {
			t.Fatalf("got %d tokens, count %d, %+v; want %d, %+v\ninput: %q seek@%d %q\ngot:  %+v\nwant: %+v",
				len(b.toks), b.count, b.skipped, len(want), skipped, doc, held, sought, b.toks, want)
		}
		for i := range want {
			if !sameToken(b.toks[i], want[i]) {
				t.Fatalf("token %d: got %+v want %+v\ninput: %q seek@%d %q", i, b.toks[i], want[i], doc, held, sought)
			}
		}
	})
}

// startTagAt returns the offset of the '<' of the first start tag of
// the accepted document doc at or after off, where no token but one
// start tag follows: only character data, comments, PIs and
// declarations lie before it.
func startTagAt(doc string, off int64) int64 {
	p := int(off)
	for {
		p += strings.IndexByte(doc[p:], '<')
		switch rest := doc[p:]; {
		case strings.HasPrefix(rest, "<!--"):
			p += 4 + strings.Index(rest[4:], "-->") + 3
		case strings.HasPrefix(rest, "<?"):
			p += 2 + strings.Index(rest[2:], "?>") + 2
		case strings.HasPrefix(rest, "<!"):
			p += 2 + strings.IndexByte(rest[2:], '>') + 1
		default:
			return int64(p)
		}
	}
}

// FuzzBytesReaderParity is the cursor-parity target: a slice-backed
// tokenizer (NewTokenizerBytes, borrowed text, in-window fast paths)
// and a reader-backed tokenizer over a deliberately tiny window (every
// construct straddles refill boundaries) must produce identical token
// streams, TokenCount and SkipStats AND identical errors — message and
// offset — including across a SkipSubtree at an arbitrary StartElement,
// which exercises the raw skip scanner's in-window and refill shapes
// against each other. Each input runs once more with a skipper that
// finds every element named like the skipAt-th start tag dead, so a
// dead tag is dropped whole in the window on one backing and across a
// refill on the other.
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
		// Dead tags — the skipAt = 1 start tag's name — cut by the edge
		// of a 16-byte window, with and without attributes.
		`<a><bbbbbbbbbbbbbbbb c="d">x</bbbbbbbbbbbbbbbb><e/><bbbbbbbbbbbbbbbb/></a>`,
		`<a>` + strings.Repeat("t", 10) + `<b k="v"><b/></b>t<b/></a>`,
	}
	for _, s := range append(seeds, tokenPathEdges...) {
		f.Add(s, uint8(0), uint8(0), false)
		f.Add(s, uint8(3), uint8(1), true)
	}
	f.Fuzz(func(t *testing.T, doc string, sizeSeed, skipAt uint8, keepWS bool) {
		type result struct {
			toks    []Token
			count   int64
			skipped event.SkipStats
			err     error
		}
		run := func(tz *Tokenizer, dead DeadNames) (r result) {
			defer tz.Release()
			tz.KeepWhitespace = keepWS
			if dead != nil {
				tz.SetSkipper(dead)
			}
			defer func() { r.count, r.skipped = tz.TokenCount(), tz.SkipStats() }()
			starts := 0
			for {
				tok, err := tz.Next()
				if err == io.EOF {
					return r
				}
				if err != nil {
					r.err = err
					return r
				}
				r.toks = append(r.toks, tok.Clone())
				if len(r.toks) > len(doc)+16 {
					t.Fatal("runaway tokenizer")
				}
				if tok.Kind == StartElement {
					if starts == int(skipAt) {
						if r.err = tz.SkipSubtree(); r.err != nil {
							return r
						}
					}
					starts++
				}
			}
		}
		compare := func(what string, b, r result) {
			if (b.err == nil) != (r.err == nil) || (b.err != nil && b.err.Error() != r.err.Error()) {
				t.Fatalf("%s: error parity: bytes=%v reader=%v\ninput: %q skip@%d keepWS=%v", what, b.err, r.err, doc, skipAt, keepWS)
			}
			if len(b.toks) != len(r.toks) || b.count != r.count || b.skipped != r.skipped {
				t.Fatalf("%s: bytes %d tokens, count %d, %+v; reader %d, %d, %+v\ninput: %q skip@%d\nbytes:  %+v\nreader: %+v",
					what, len(b.toks), b.count, b.skipped, len(r.toks), r.count, r.skipped, doc, skipAt, b.toks, r.toks)
			}
			for i := range b.toks {
				if !sameToken(b.toks[i], r.toks[i]) {
					t.Fatalf("%s: token %d: bytes %+v reader %+v\ninput: %q skip@%d", what, i, b.toks[i], r.toks[i], doc, skipAt)
				}
			}
		}
		size := 16 + int(sizeSeed)%48
		b := run(NewTokenizerBytes([]byte(doc)), nil)
		compare("SkipSubtree", b, run(NewTokenizerWindow(strings.NewReader(doc), size), nil))

		var names []string
		for _, tok := range b.toks {
			if tok.Kind == StartElement {
				names = append(names, tok.Name)
			}
		}
		if len(names) == 0 {
			return
		}
		dead := DeadNames{names[int(skipAt)%len(names)]: true}
		compare("skipper", run(NewTokenizerBytes([]byte(doc)), dead), run(NewTokenizerWindow(strings.NewReader(doc), size), dead))
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
