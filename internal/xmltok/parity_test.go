package xmltok

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"gcx/internal/event"
	"gcx/internal/xmark"
)

// tokenRun is everything a consumer can observe of one tokenization.
type tokenRun struct {
	toks    []Token
	count   int64
	skipped event.SkipStats
	err     string // message and offset; "" at a clean EOF
}

// runTokens drains tz, with dead installed as its skipper unless nil.
func runTokens(tz *Tokenizer, dead DeadNames) tokenRun {
	defer tz.Release()
	if dead != nil {
		tz.SetSkipper(dead)
	}
	var r tokenRun
	for {
		tok, err := tz.Next()
		if err != nil {
			if err != io.EOF {
				r.err = err.Error()
			}
			r.count, r.skipped = tz.TokenCount(), tz.SkipStats()
			return r
		}
		r.toks = append(r.toks, tok.Clone())
	}
}

// TestTokenPathParity checks that the two shapes of Tokenizer.Next agree
// (DESIGN.md §12, "The fast-accept token path"). The bytes backing and
// the default reader window take the in-window fast accepts wherever a
// tag is regular; a reader window of 16–63 bytes cuts nearly every tag
// with a refill, which only the careful path can read, and a reader
// that hands out one byte per Read leaves everything to it. All must
// yield the same tokens, the same TokenCount, the same SkipStats and the
// same error at the same offset, over a generated XMark document and
// the edge table that also seeds FuzzTokenizer and
// FuzzBytesReaderParity — without a skipper, and with a name-set one,
// whose dead children either shape may read (DESIGN.md §7, "Runtime").
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
		if got.err != want.err || got.count != want.count || got.skipped != want.skipped || len(got.toks) != len(want.toks) {
			t.Fatalf("%s: %d tokens, count %d, skipped %+v, error %q; bytes backing: %d tokens, count %d, skipped %+v, error %q\ninput: %q",
				backing, len(got.toks), got.count, got.skipped, got.err, len(want.toks), want.count, want.skipped, want.err, name)
		}
		for i, w := range want.toks {
			if g := got.toks[i]; !sameToken(g, w) {
				t.Fatalf("%s: token %d is %+v, on the bytes backing %+v\ninput: %q", backing, i, g, w, name)
			}
		}
	}
	// The dead names cover edge-table tags (self-closing, with
	// attributes, names ending at a window edge) and XMark subtrees.
	dead := DeadNames{"b": true, "d": true, "description": true, "mailbox": true, "bidder": true}
	for _, n := range []int{12, 28, 59} {
		dead[strings.Repeat("n", n)] = true
	}
	for _, skipper := range []DeadNames{nil, dead} {
		for _, doc := range append([]string{xm}, tokenPathEdges...) {
			// A short tag can lie whole inside even a 16-byte window, so
			// each document is also shifted by leading blanks: over the
			// shifts and sizes every tag is cut by a refill in some run,
			// and read whole in others. The 1 MiB document samples both.
			pads, step := 18, 1
			switch {
			case len(doc) > 1<<16:
				pads, step = 1, 11
			case len(doc) > 1<<10:
				pads = 2
			}
			for pad := 0; pad < pads; pad++ {
				doc := strings.Repeat(" ", pad) + doc
				want := runTokens(NewTokenizerBytes([]byte(doc)), skipper)
				check(doc, "default reader", want, runTokens(NewTokenizer(strings.NewReader(doc)), skipper))
				check(doc, "one-byte reader", want, runTokens(NewTokenizer(iotest.OneByteReader(strings.NewReader(doc))), skipper))
				for size := 16; size < 64; size += step {
					got := runTokens(NewTokenizerWindow(strings.NewReader(doc), size), skipper)
					check(doc, fmt.Sprintf("reader window %d", size), want, got)
				}
			}
		}
	}
	if want := runTokens(NewTokenizerBytes([]byte(xm)), nil); want.err != "" || want.count < 40_000 {
		t.Fatalf("XMark document: %d tokens, error %q", want.count, want.err)
	}
	if want := runTokens(NewTokenizerBytes([]byte(xm)), dead); want.err != "" || want.skipped.SubtreesSkipped < 1_000 {
		t.Fatalf("XMark document with a skipper: %+v, error %q", want.skipped, want.err)
	}
}
