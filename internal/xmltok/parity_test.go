package xmltok_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"gcx/internal/xmark"
	"gcx/internal/xmltok"
)

// tokenRun is everything a consumer can observe of one tokenization.
type tokenRun struct {
	toks  []xmltok.Token
	count int64
	err   string // message and offset; "" at a clean EOF
}

func runTokens(tz *xmltok.Tokenizer) tokenRun {
	defer tz.Release()
	var r tokenRun
	for {
		tok, err := tz.Next()
		if err != nil {
			if err != io.EOF {
				r.err = err.Error()
			}
			r.count = tz.TokenCount()
			return r
		}
		r.toks = append(r.toks, tok.Clone())
	}
}

// TestTokenPathParity checks that the two shapes of Tokenizer.Next agree
// (DESIGN.md §12, "The fast-accept token path"). The bytes backing and
// the default reader window take the in-window fast accepts wherever a
// tag is regular; a reader window of 16–63 bytes cuts nearly every tag
// with a refill, which only the careful path can read. All must yield
// the same tokens, the same TokenCount and the same error at the same
// offset, over a generated XMark document and the edge table that also
// seeds FuzzTokenizer and FuzzBytesReaderParity.
func TestTokenPathParity(t *testing.T) {
	xm, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(doc, backing string, want, got tokenRun) {
		t.Helper()
		name := doc
		if len(name) > 80 {
			name = name[:80] + "…"
		}
		if got.err != want.err || got.count != want.count || len(got.toks) != len(want.toks) {
			t.Fatalf("%s: %d tokens, count %d, error %q; bytes backing: %d tokens, count %d, error %q\ninput: %q",
				backing, len(got.toks), got.count, got.err, len(want.toks), want.count, want.err, name)
		}
		for i, w := range want.toks {
			if g := got.toks[i]; !xmltok.SameToken(g, w) {
				t.Fatalf("%s: token %d is %+v, on the bytes backing %+v\ninput: %q", backing, i, g, w, name)
			}
		}
	}
	for _, doc := range append([]string{xm}, xmltok.TokenPathEdges...) {
		// A short tag can lie whole inside even a 16-byte window, so each
		// document is also shifted by leading blanks: over the shifts and
		// sizes every tag is cut by a refill in some run, and read whole
		// in others. The 1 MiB document samples both.
		pads, step := 18, 1
		switch {
		case len(doc) > 1<<16:
			pads, step = 1, 11
		case len(doc) > 1<<10:
			pads = 2
		}
		for pad := 0; pad < pads; pad++ {
			doc := strings.Repeat(" ", pad) + doc
			want := runTokens(xmltok.NewTokenizerBytes([]byte(doc)))
			check(doc, "default reader", want, runTokens(xmltok.NewTokenizer(strings.NewReader(doc))))
			for size := 16; size < 64; size += step {
				got := runTokens(xmltok.NewTokenizerWindow(strings.NewReader(doc), size))
				check(doc, fmt.Sprintf("reader window %d", size), want, got)
			}
		}
	}
	if want := runTokens(xmltok.NewTokenizerBytes([]byte(xm))); want.err != "" || want.count < 40_000 {
		t.Fatalf("XMark document: %d tokens, error %q", want.count, want.err)
	}
}
