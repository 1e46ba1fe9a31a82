package jsontok

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"gcx/internal/event"
)

// FuzzJSONTokenizer checks three invariants over arbitrary input:
//
//  1. the tokenizer never panics and never produces an unbalanced
//     event stream (every StartElement is closed, depth never goes
//     negative, a clean EOF ends at depth zero);
//  2. it accepts at least what encoding/json accepts — any input that
//     json.Valid blesses as a single value must tokenize without error
//     (the tokenizer's dialect is a superset: concatenated values and
//     lenient number tails are additionally allowed), unless it nests
//     deeper than event.MaxDepth, where encoding/json allows 10 000;
//  3. whatever was accepted serializes to valid JSON lines that
//     re-tokenize cleanly.
func FuzzJSONTokenizer(f *testing.F) {
	seeds := []string{
		`{"a":1}`,
		`{"a":[1,2,{"b":"x"}],"c":null}`,
		"{\"a\":1}\n{\"a\":2}\n",
		`[{"k":"v"},[],{}]`,
		`"😀 A \\ \" \n"`,
		`-1.5e+10 true false null`,
		`{`,
		`[1,`,
		`{"a"`,
		"\x00{}",
		`{"":""}`,
		strings.Repeat("[", 64) + strings.Repeat("]", 64),
		// One level past the nesting ceiling (event.MaxDepth).
		strings.Repeat("[", event.MaxDepth+1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		tz := NewTokenizer(strings.NewReader(doc))
		defer tz.Release()
		var toks []event.Token
		depth := 0
		var tokErr error
		for i := 0; ; i++ {
			tok, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				tokErr = err
				break
			}
			switch tok.Kind {
			case event.StartElement:
				depth++
			case event.EndElement:
				depth--
				if depth < 0 {
					t.Fatalf("event depth went negative\ninput: %q", doc)
				}
			}
			toks = append(toks, tok.Clone())
			if i > 4*len(doc)+16 {
				t.Fatalf("more events than input bytes: runaway tokenizer\ninput: %q", doc)
			}
		}
		if tokErr != nil {
			if json.Valid([]byte(doc)) && !strings.Contains(tokErr.Error(), "nested deeper") {
				t.Fatalf("rejected input that encoding/json accepts: %v\ninput: %q", tokErr, doc)
			}
			return // clean rejection of invalid input
		}
		if depth != 0 {
			t.Fatalf("clean EOF at depth %d\ninput: %q", depth, doc)
		}
		// Accepted streams must serialize to valid JSON lines that
		// re-tokenize without error.
		var out strings.Builder
		ser := NewSerializer(&out)
		for _, tok := range toks {
			if tok.Name == event.RootName {
				continue
			}
			switch tok.Kind {
			case event.StartElement:
				ser.StartElement(tok.Name, tok.Attrs)
			case event.EndElement:
				ser.EndElement(tok.Name)
			case event.Text:
				ser.Text(tok.Text)
			}
		}
		if err := ser.Flush(); err != nil {
			t.Fatal(err)
		}
		ser.Release()
		for _, line := range strings.Split(out.String(), "\n") {
			if line != "" && !json.Valid([]byte(line)) {
				t.Fatalf("serializer emitted invalid JSON line %q\ninput: %q", line, doc)
			}
		}
		tz2 := NewTokenizer(strings.NewReader(out.String()))
		defer tz2.Release()
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

// backings are the three the differential targets compare: the slice,
// a reader with a small window (16–63 bytes, by sizeSeed) and a reader
// that hands out one byte per Read, under which every member touches
// the window's edge at some offset — the in-window accept's bail-out.
var backings = []string{"bytes", "reader", "one-byte"}

func openBacking(name, doc string, sizeSeed uint8) *Tokenizer {
	switch name {
	case "bytes":
		return NewTokenizerBytes([]byte(doc))
	case "reader":
		tz := NewTokenizer(nil)
		tz.cur.ResetReader(strings.NewReader(doc), 16+int(sizeSeed)%48)
		return tz
	}
	return NewTokenizer(iotest.OneByteReader(strings.NewReader(doc)))
}

// sameTokens fails the test unless got and want are the same events.
func sameTokens(t *testing.T, what string, got, want []event.Token, doc string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d\ninput: %q", what, len(got), len(want), doc)
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Kind != b.Kind || a.Name != b.Name || a.Text != b.Text || len(a.Attrs) != len(b.Attrs) {
			t.Fatalf("%s: event %d is %+v, want %+v\ninput: %q", what, i, a, b, doc)
		}
	}
}

// differentialSeeds are inputs both differential targets start from:
// escapes in keys and values, and every separator surrounded by every
// whitespace byte.
var differentialSeeds = []string{
	`{"a":1}`,
	`{"a":[1,2,{"b":"x"}],"c":null}`,
	"{\"a\":1}\n{\"a\":2}\n",
	`"esc A😀 \\ \" end"`,
	`{"` + strings.Repeat("k", 17) + `":"` + strings.Repeat("v", 17) + `"}`,
	`{"k\"q":1,"k\\":{"\u0041":[]},"z\\\"":"v"}`,
	"{ \"a\" \t:\r\n1 ,\n\"b\"\r:\t[ 1\t,\r2\n, 3 ]\r,\t\"c\" : { } }",
	"[\t1 ,\n2\r,[ ]\t,{\n}\r]",
	`{"a":{"deep":[1,2]},"b":3}`,
	`{"a":"br } ace \" in string","b":1}`,
	`{"a":[[[{"x":1}]]],"b":2}`,
	`-1.5e+10 true false null`,
	// Values run together: a skipped scalar ends where reading it would.
	`0{}1true"x"falsenull[]`,
	`[1,`,
	`{"a"`,
	`{"a":1,}`,
	"\x00{}",
	// One level past the nesting ceiling (event.MaxDepth).
	strings.Repeat("[", event.MaxDepth+1),
	`{"a":` + strings.Repeat("[", event.MaxDepth) + `,"b":2}`,
}

// FuzzJSONBytesReaderParity is the cursor-parity target for the JSON
// front end: the slice-backed tokenizer (NewTokenizerBytes, borrowed
// strings and numbers) and the reader-backed ones (a tiny window, one
// byte per Read) must produce identical event streams and identical
// errors, message and offset both.
func FuzzJSONBytesReaderParity(f *testing.F) {
	for _, s := range differentialSeeds {
		f.Add(s, uint8(0))
		f.Add(s, uint8(5))
	}
	f.Fuzz(func(t *testing.T, doc string, sizeSeed uint8) {
		run := func(tz *Tokenizer) ([]event.Token, error) {
			defer tz.Release()
			var toks []event.Token
			for {
				tok, err := tz.Next()
				if err == io.EOF {
					return toks, nil
				}
				if err != nil {
					return toks, err
				}
				toks = append(toks, tok.Clone())
				if len(toks) > 4*len(doc)+16 {
					t.Fatal("runaway tokenizer")
				}
			}
		}
		want, wantErr := run(openBacking(backings[0], doc, sizeSeed))
		for _, name := range backings[1:] {
			got, err := run(openBacking(name, doc, sizeSeed))
			if (wantErr == nil) != (err == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("error parity: bytes=%v %s=%v\ninput: %q", wantErr, name, err, doc)
			}
			sameTokens(t, name+" against bytes", got, want, doc)
		}
	})
}

// FuzzJSONSkipSubtree pins skip/no-skip parity one-sided: if full
// tokenization succeeds, skipping at the k-th StartElement (k from the
// fuzz input; the root is the 0th) must succeed on every backing, land
// the stream at the event after that element's end, and leave the same
// TokenCount and SkipStats whatever the backing. The same holds with a
// skipper that finds every element named like the k-th dead: the stream
// is the full one without those elements, on every backing.
func FuzzJSONSkipSubtree(f *testing.F) {
	seeds := append([]string{
		// Dead members — the k = 3 element's name — whose values, an
		// array among them, run past the edge of a 16-byte window.
		`{"a":1,"dead":[1,{"x":"` + strings.Repeat("y", 12) + `"}],"b":{"dead":"z"},"dead":2}`,
		`{"a":{"` + strings.Repeat("k", 14) + `":[true,null]},"` + strings.Repeat("k", 14) + `":-1.5}`,
	}, differentialSeeds...)
	for _, s := range seeds {
		for _, k := range []uint8{0, 1, 2, 3, 5} {
			f.Add(s, k, uint8(3))
		}
	}
	f.Fuzz(func(t *testing.T, doc string, k, sizeSeed uint8) {
		// events tokenizes doc with dead as its skipper unless nil,
		// skipping at the skipAt-th StartElement (never, if negative).
		events := func(tz *Tokenizer, dead deadNames, skipAt int) (out []event.Token, count int64, skipped event.SkipStats, err error) {
			defer tz.Release()
			if dead != nil {
				tz.SetSkipper(dead)
			}
			for starts := 0; ; {
				tok, err := tz.Next()
				if err == io.EOF {
					return out, tz.TokenCount(), tz.SkipStats(), nil
				}
				if err != nil {
					return out, 0, event.SkipStats{}, err
				}
				out = append(out, tok.Clone())
				if tok.Kind != event.StartElement {
					continue
				}
				if starts++; starts-1 == skipAt {
					if err := tz.SkipSubtree(); err != nil {
						return out, 0, event.SkipStats{}, err
					}
				}
			}
		}
		full, _, _, err := events(NewTokenizerBytes([]byte(doc)), nil, -1)
		if err != nil {
			return // invalid input; nothing to compare
		}
		// without returns full less the elements cut selects by ordinal
		// and name: their insides and EndElements, and their
		// StartElements too unless keepStart.
		without := func(keepStart bool, cut func(start int, name string) bool) []event.Token {
			out, starts, depth := full[:0:0], 0, 0
			for _, tok := range full {
				if depth > 0 {
					switch tok.Kind {
					case event.StartElement:
						depth++
					case event.EndElement:
						depth--
					}
					continue
				}
				if tok.Kind == event.StartElement && cut(starts, tok.Name) {
					depth = 1
				}
				if depth == 0 || keepStart {
					out = append(out, tok)
				}
				if tok.Kind == event.StartElement {
					starts++
				}
			}
			return out
		}
		check := func(what string, dead deadNames, skipAt int, want []event.Token) {
			var refCount int64
			var refSkipped event.SkipStats
			for i, name := range backings {
				got, count, skipped, err := events(openBacking(name, doc, sizeSeed), dead, skipAt)
				if err != nil {
					t.Fatalf("%s: full tokenization accepts but %s errors: %v\ninput: %q", name, what, err, doc)
				}
				sameTokens(t, name+" with "+what, got, want, doc)
				if i == 0 {
					refCount, refSkipped = count, skipped
				} else if count != refCount || skipped != refSkipped {
					t.Fatalf("%s with %s: TokenCount %d, SkipStats %+v; bytes: %d, %+v\ninput: %q", name, what, count, skipped, refCount, refSkipped, doc)
				}
			}
		}
		var dead deadNames
		check("skip", nil, int(k), without(true, func(start int, name string) bool {
			if start == int(k) {
				dead = deadNames{name: true}
			}
			return start == int(k)
		}))
		if dead == nil {
			return // fewer than k+1 elements
		}
		check("skipper", dead, -1, without(false, func(_ int, name string) bool { return dead[name] }))
	})
}
