package event_test

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"gcx/internal/event"
	"gcx/internal/jsontok"
	"gcx/internal/xmltok"
)

// The same tree in both syntaxes (DESIGN.md §8 maps the JSON onto it):
// two records, scalar members, a nested member and a repeated one.
const (
	xmlDoc  = `<root><record><a>1</a><b><c>x</c><c>y</c></b><d>2</d></record><record><a>3</a></record></root>`
	jsonDoc = `{"a":1,"b":{"c":["x","y"]},"d":2}` + "\n" + `{"a":3}`
	// The tree cut off inside the first record's <b>.
	xmlCut  = `<root><record><a>1</a><b><c>x</c>`
	jsonCut = `{"a":1,"b":{"c":["x"`
	// A syntax error after the first record's <a>.
	xmlBad  = `<root><record><a>1</a></b>`
	jsonBad = `{"a":1,]`
)

// sources are the four implementations of event.Source: each front end
// on the slice backing and on the reader backing, the latter reading at
// most chunk bytes at a time when chunk is positive.
var sources = []struct {
	name          string
	doc, cut, bad string
	volatile      bool
	open          func(doc string, chunk int) event.Source
}{
	{"xml/bytes", xmlDoc, xmlCut, xmlBad, false, func(d string, _ int) event.Source { return xmltok.NewTokenizerBytes([]byte(d)) }},
	{"xml/reader", xmlDoc, xmlCut, xmlBad, true, func(d string, n int) event.Source { return xmltok.NewTokenizer(chunked(d, n)) }},
	{"json/bytes", jsonDoc, jsonCut, jsonBad, false, func(d string, _ int) event.Source { return jsontok.NewTokenizerBytes([]byte(d)) }},
	{"json/reader", jsonDoc, jsonCut, jsonBad, true, func(d string, n int) event.Source { return jsontok.NewTokenizer(chunked(d, n)) }},
}

// chunked reads doc at most n bytes a Read (all of it for n ≤ 0). The
// cursor refills an empty window with one Read, so its windows are that
// short: nearly every construct meets a refill, and a view into the
// window is overwritten soon after it expires.
func chunked(doc string, n int) io.Reader {
	if n <= 0 {
		return strings.NewReader(doc)
	}
	return &chunkReader{r: strings.NewReader(doc), n: n}
}

type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// show renders a token; the text is cloned because the result is kept
// past the next pull and two of the sources are volatile.
func show(t event.Token) string {
	switch t.Kind {
	case event.StartElement:
		return "<" + t.Name + ">"
	case event.EndElement:
		return "</" + t.Name + ">"
	}
	return t.Clone().Text
}

// wantStream is the event stream of the tree, one entry per token.
var wantStream = strings.Fields(`<root> <record> <a> 1 </a> <b> <c> x </c> <c> y </c> </b> <d> 2 </d> </record>
	<record> <a> 3 </a> </record> </root>`)

// pull drains src, calling SkipSubtree on the StartElements whose ordinal
// (0-based, among the StartElements delivered) skip selects, and checks
// the counter clauses of the contract on the way: TokenCount is the
// number of tokens Next has delivered, SkipStats moves only inside
// SkipSubtree, never backwards, and counts one subtree per call.
func pull(t *testing.T, src event.Source, skip func(start int) bool) ([]string, error) {
	t.Helper()
	var got []string
	var stats event.SkipStats
	for starts, skips := 0, int64(0); ; {
		tok, err := src.Next()
		if err == nil {
			got = append(got, show(tok))
		}
		if n := src.TokenCount(); n != int64(len(got)) {
			t.Fatalf("TokenCount = %d after %d delivered tokens (err %v)", n, len(got), err)
		}
		if src.SkipStats() != stats {
			t.Fatalf("SkipStats moved outside SkipSubtree: %+v -> %+v", stats, src.SkipStats())
		}
		if err != nil {
			return got, err
		}
		if tok.Kind != event.StartElement {
			continue
		}
		if starts++; !skip(starts - 1) {
			continue
		}
		err = src.SkipSubtree()
		skips++
		now := src.SkipStats()
		if now.SubtreesSkipped != skips || now.BytesSkipped < stats.BytesSkipped || now.TagsSkipped < stats.TagsSkipped {
			t.Fatalf("SkipStats after %d skips: %+v, before the last: %+v", skips, now, stats)
		}
		stats = now
		if n := src.TokenCount(); n != int64(len(got)) {
			t.Fatalf("TokenCount = %d after a skip, %d tokens delivered: skipped tokens must not count", n, len(got))
		}
		if err != nil {
			return got, err
		}
	}
}

// without returns stream minus the inside and the end tag of the
// subtree opened by its start-th StartElement.
func without(stream []string, start int) []string {
	var out []string
	depth, starts := 0, 0
	for _, s := range stream {
		isStart := strings.HasPrefix(s, "<") && !strings.HasPrefix(s, "</")
		if depth > 0 {
			switch {
			case isStart:
				depth++
			case strings.HasPrefix(s, "</"):
				depth--
			}
			continue
		}
		out = append(out, s)
		if isStart {
			if starts == start {
				depth = 1
			}
			starts++
		}
	}
	return out
}

// deadNames is a name-set Skipper: the children it names are dead
// wherever they occur.
type deadNames map[string]bool

func (d deadNames) Child(name string) (event.Verdict, []string) {
	if d[name] {
		return event.Dead, nil
	}
	return event.Live, nil
}

// skipRun is what a consumer observes of a stream drained with a
// skipper installed.
type skipRun struct {
	stream  []string
	count   int64
	skipped event.SkipStats
	err     error
}

// seekNames is a name-set Skipper that seeks: the children it names
// are sought with the set sought wherever they occur, the rest live.
type seekNames struct {
	seek   map[string]bool
	sought []string
}

func (s seekNames) Child(name string) (event.Verdict, []string) {
	if s.seek[name] {
		return event.Seek, s.sought
	}
	return event.Live, nil
}

// pullDead drains src with dead as its skipper, checking on the way that
// TokenCount is the number of tokens Next has delivered.
func pullDead(t *testing.T, src event.Source, dead event.Skipper) skipRun {
	t.Helper()
	defer src.Release()
	src.SetSkipper(dead)
	var r skipRun
	for {
		tok, err := src.Next()
		if err == nil {
			r.stream = append(r.stream, show(tok))
		}
		if n := src.TokenCount(); n != int64(len(r.stream)) {
			t.Fatalf("TokenCount = %d after %d delivered tokens (err %v)", n, len(r.stream), err)
		}
		if err != nil {
			r.count, r.skipped, r.err = src.TokenCount(), src.SkipStats(), err
			return r
		}
	}
}

// TestSourceContract holds all four sources to the clauses of the
// event.Source contract that the engine relies on and no format-level
// test states.
func TestSourceContract(t *testing.T) {
	for i, s := range sources {
		t.Run(s.name, func(t *testing.T) {
			// The unskipped stream is the tree's, in both syntaxes.
			src := s.open(s.doc, 0)
			if src.Volatile() != s.volatile {
				t.Errorf("Volatile() = %v, want %v", src.Volatile(), s.volatile)
			}
			if runs := strings.HasPrefix(s.name, "json"); src.Runs() != runs {
				t.Errorf("Runs() = %v, want %v", src.Runs(), runs)
			}
			got, err := pull(t, src, func(int) bool { return false })
			if err != io.EOF || fmt.Sprint(got) != fmt.Sprint(wantStream) {
				t.Fatalf("stream = %v, %v\nwant     %v, EOF", got, err, wantStream)
			}
			if _, err := src.Next(); err != io.EOF {
				t.Errorf("Next after EOF = %v, want EOF again", err)
			}
			src.Release()
			src.Release() // twice is harmless

			// After SkipSubtree the next token is the one after the
			// subtree's end: the following sibling or the parent's end.
			starts := 0
			for _, w := range wantStream {
				if strings.HasPrefix(w, "<") && !strings.HasPrefix(w, "</") {
					starts++
				}
			}
			for at := 0; at < starts; at++ {
				src := s.open(s.doc, 0)
				got, err := pull(t, src, func(i int) bool { return i == at })
				if want := without(wantStream, at); err != io.EOF || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("skip at start %d: %v, %v\nwant %v, EOF", at, got, err, want)
				}
				src.Release()
			}

			// Several skips in one run: the totals are the sums pull checks
			// call by call. The <a> and <d> members and the second record.
			src = s.open(s.doc, 0)
			got, err = pull(t, src, func(i int) bool { return i == 2 || i == 6 || i == 7 })
			want := strings.Fields(`<root> <record> <a> <b> <c> x </c> <c> y </c> </b> <d> </record> <record> </root>`)
			if err != io.EOF || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("three skips: %v, %v\nwant %v, EOF", got, err, want)
			}
			if st := src.SkipStats(); st.SubtreesSkipped != 3 || st.BytesSkipped == 0 {
				t.Errorf("three skips: SkipStats %+v", st)
			}
			src.Release()

			// With a skipper, Next drops each dead child itself: the stream
			// is the tree without those subtrees, start tags included, and
			// TokenCount counts what was delivered. The counters are the
			// slice backing's at every window size, down to one byte a
			// Read. Each dropped start tag is a skipped tag, which makes
			// the element tags of the XML stream add up; JSON's counter is
			// a lower bound, and drops a dead array in one skip.
			ref, xml := sources[i-i%2], i < 2
			for _, c := range []struct {
				dead     deadNames
				want     string
				subtrees [2]int64 // XML's, JSON's
			}{
				{deadNames{"c": true, "d": true}, `<root> <record> <a> 1 </a> <b> </b> </record> <record> <a> 3 </a> </record> </root>`, [2]int64{3, 2}},
				{deadNames{"a": true}, `<root> <record> <b> <c> x </c> <c> y </c> </b> <d> 2 </d> </record> <record> </record> </root>`, [2]int64{2, 2}},
				{deadNames{"root": true}, ``, [2]int64{1, 1}},
			} {
				want := pullDead(t, ref.open(ref.doc, 0), c.dead)
				if want.err != io.EOF || fmt.Sprint(want.stream) != fmt.Sprint(strings.Fields(c.want)) {
					t.Errorf("dead %v: %v, %v\nwant %s, EOF", c.dead, want.stream, want.err, c.want)
				}
				tags := want.skipped.TagsSkipped
				for _, w := range want.stream {
					if strings.HasPrefix(w, "<") {
						tags++
					}
				}
				subtrees := c.subtrees[1]
				if xml {
					subtrees = c.subtrees[0]
				}
				if tags > 18 || xml && tags != 18 || want.skipped.SubtreesSkipped != subtrees {
					t.Errorf("dead %v: %d element tags delivered or skipped of 18, SkipStats %+v", c.dead, tags, want.skipped)
				}
				for chunk := range 64 {
					if chunk > 1 && chunk < 16 {
						continue
					}
					if got := pullDead(t, s.open(s.doc, chunk), c.dead); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("dead %v, %d-byte reads: %+v\nslice backing: %+v", c.dead, chunk, got, want)
					}
				}
			}

			// With a seeking skipper, XML passes over everything in a sought
			// child before the first start tag of the set, delivering the
			// open elements on the way, and drops a child that holds none
			// as a dead one; JSON delivers a sought child as a live one.
			// The counters are the slice backing's at every window size.
			for _, c := range []struct {
				seek     seekNames
				want     string
				subtrees int64
			}{
				{seekNames{map[string]bool{"record": true}, []string{"c"}}, `<root> <record> <b> <c> x </c> <c> y </c> </b> <d> 2 </d> </record> </root>`, 1},
				{seekNames{map[string]bool{"root": true}, []string{"d", "x"}}, `<root> <record> <d> 2 </d> </record> <record> <a> 3 </a> </record> </root>`, 0},
				{seekNames{map[string]bool{"root": true}, []string{"zzz"}}, ``, 1},
			} {
				want := pullDead(t, ref.open(ref.doc, 0), c.seek)
				stream, subtrees := strings.Fields(c.want), c.subtrees
				if !xml {
					stream, subtrees = wantStream, 0
				}
				if want.err != io.EOF || fmt.Sprint(want.stream) != fmt.Sprint(stream) {
					t.Errorf("seek %v: %v, %v\nwant %s, EOF", c.seek, want.stream, want.err, stream)
				}
				tags := want.skipped.TagsSkipped
				for _, w := range want.stream {
					if strings.HasPrefix(w, "<") {
						tags++
					}
				}
				if xml && tags != 18 || want.skipped.SubtreesSkipped != subtrees || !xml && want.skipped != (event.SkipStats{}) {
					t.Errorf("seek %v: %d element tags delivered or skipped of 18, SkipStats %+v", c.seek, tags, want.skipped)
				}
				for chunk := range 64 {
					if chunk > 1 && chunk < 16 {
						continue
					}
					if got := pullDead(t, s.open(s.doc, chunk), c.seek); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("seek %v, %d-byte reads: %+v\nslice backing: %+v", c.seek, chunk, got, want)
					}
				}
			}

			// An error is sticky, whether Next or SkipSubtree met it.
			for _, c := range []struct {
				what, doc string
				skipAt    int
			}{{"syntax error", s.bad, -1}, {"truncated", s.cut, -1}, {"truncated inside a skip", s.cut, 3}} {
				src := s.open(c.doc, 0)
				_, first := pull(t, src, func(i int) bool { return i == c.skipAt })
				if first == nil || first == io.EOF {
					t.Fatalf("%s: got %v, want an error", c.what, first)
				}
				for range 2 {
					if _, err := src.Next(); err == nil || err.Error() != first.Error() {
						t.Errorf("%s: Next after %q = %v, want the same error", c.what, first, err)
					}
				}
				src.Release()
			}

			// A source taken from the pool after a failed, cancelled,
			// half-read one starts clean.
			src = s.open(s.cut, 0)
			ctx, cancel := context.WithCancel(context.Background())
			src.SetContext(ctx)
			pull(t, src, func(i int) bool { return i == 2 })
			cancel()
			if _, err := src.Next(); err == nil {
				t.Error("Next after a failed run returned a token")
			}
			src.Release()
			src = s.open(s.doc, 0)
			if src.TokenCount() != 0 || src.SkipStats() != (event.SkipStats{}) {
				t.Errorf("reacquired source: TokenCount %d, SkipStats %+v", src.TokenCount(), src.SkipStats())
			}
			if got, err := pull(t, src, func(int) bool { return false }); err != io.EOF || fmt.Sprint(got) != fmt.Sprint(wantStream) {
				t.Errorf("reacquired source: %v, %v\nwant %v, EOF", got, err, wantStream)
			}
			src.Release()
		})
	}
}

// TestClonedStreamAcrossBackings states the lifetime clause of the
// contract: a stream collected with Token.Clone is the same on every
// backing and at every window size, whereas a Text kept without it does
// not survive the next pull of a volatile source (under go test the
// source overwrites it).
func TestClonedStreamAcrossBackings(t *testing.T) {
	collect := func(src event.Source) []event.Token {
		defer src.Release()
		var toks []event.Token
		for {
			tok, err := src.Next()
			if err == io.EOF {
				return toks
			}
			if err != nil {
				t.Fatal(err)
			}
			toks = append(toks, tok.Clone())
		}
	}
	for i := 0; i < len(sources); i += 2 {
		fixed, reader := sources[i], sources[i+1]
		want := collect(fixed.open(fixed.doc, 0))
		for chunk := 16; chunk < 64; chunk++ {
			if got := collect(reader.open(reader.doc, chunk)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d-byte reads: %v\nwant %v", reader.name, chunk, got, want)
			}
		}
		for _, s := range sources[i : i+2] {
			src := s.open(s.doc, 0)
			var kept string
			for kept == "" {
				tok, err := src.Next()
				if err != nil {
					t.Fatal(err)
				}
				kept = tok.Text
			}
			first := strings.Clone(kept)
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
			if survived := kept == first; survived == s.volatile {
				t.Errorf("%s: a kept Text %q reads %q after the next pull", s.name, first, kept)
			}
			src.Release()
		}
	}
}
