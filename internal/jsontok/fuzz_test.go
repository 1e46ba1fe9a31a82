package jsontok

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

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
			toks = append(toks, tok)
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

// FuzzJSONBytesReaderParity is the cursor-parity target for the JSON
// front end: the slice-backed tokenizer (NewTokenizerBytes, borrowed
// strings and numbers) and a reader-backed tokenizer over a tiny window
// must produce identical event streams and identical errors, message
// and offset both.
func FuzzJSONBytesReaderParity(f *testing.F) {
	seeds := []string{
		`{"a":1}`,
		`{"a":[1,2,{"b":"x"}],"c":null}`,
		"{\"a\":1}\n{\"a\":2}\n",
		`"esc A😀 \\ \" end"`,
		`{"` + strings.Repeat("k", 17) + `":"` + strings.Repeat("v", 17) + `"}`,
		`-1.5e+10 true false null`,
		`[1,`,
		`{"a"`,
		"\x00{}",
		// One level past the nesting ceiling (event.MaxDepth).
		strings.Repeat("[", event.MaxDepth+1),
	}
	for _, s := range seeds {
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
				toks = append(toks, tok)
				if len(toks) > 4*len(doc)+16 {
					t.Fatal("runaway tokenizer")
				}
			}
		}
		gotB, errB := run(NewTokenizerBytes([]byte(doc)))
		rd := NewTokenizer(strings.NewReader(doc))
		rd.cur.ResetReader(strings.NewReader(doc), 16+int(sizeSeed)%48)
		gotR, errR := run(rd)

		if (errB == nil) != (errR == nil) || (errB != nil && errB.Error() != errR.Error()) {
			t.Fatalf("error parity: bytes=%v reader=%v\ninput: %q", errB, errR, doc)
		}
		if len(gotB) != len(gotR) {
			t.Fatalf("event counts differ: bytes %d reader %d\ninput: %q", len(gotB), len(gotR), doc)
		}
		for i := range gotB {
			a, b := gotB[i], gotR[i]
			if a.Kind != b.Kind || a.Name != b.Name || a.Text != b.Text || len(a.Attrs) != len(b.Attrs) {
				t.Fatalf("event %d: bytes %+v reader %+v\ninput: %q", i, a, b, doc)
			}
		}
	})
}

// FuzzJSONSkipSubtree pins skip/no-skip parity one-sided: if full
// tokenization of a record succeeds, skipping that record must succeed
// and land the stream at the same next event.
func FuzzJSONSkipSubtree(f *testing.F) {
	seeds := []string{
		`{"a":{"deep":[1,2]},"b":3}`,
		`{"a":"br } ace \" in string","b":1}`,
		`{"a":[[[{"x":1}]]],"b":2}`,
		`{"a":1}`,
		`{"a":` + strings.Repeat("[", event.MaxDepth) + `,"b":2}`, // one level past the ceiling
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		// Reference: full tokenization, remembering events after the
		// first element under record closes.
		events := func(skipFirst bool) ([]event.Token, error) {
			tz := NewTokenizer(strings.NewReader(doc))
			defer tz.Release()
			var out []event.Token
			depth := 0
			skipped := false
			for {
				tok, err := tz.Next()
				if err == io.EOF {
					return out, nil
				}
				if err != nil {
					return out, err
				}
				switch tok.Kind {
				case event.StartElement:
					depth++
					if skipFirst && !skipped && depth == 3 {
						// First element inside the record.
						skipped = true
						if err := tz.SkipSubtree(); err != nil {
							return out, err
						}
						depth--
						continue
					}
				case event.EndElement:
					depth--
				}
				out = append(out, tok)
			}
		}
		full, errFull := events(false)
		if errFull != nil {
			return // invalid input; nothing to compare
		}
		skip, errSkip := events(true)
		if errSkip != nil {
			t.Fatalf("full tokenization accepts but skip errors: %v\ninput: %q", errSkip, doc)
		}
		// The skipped run must be a subsequence cut: same prefix before
		// the skipped element, same suffix after its subtree.
		cut := -1
		depth := 0
		for i, tok := range full {
			if tok.Kind == event.StartElement {
				depth++
				if depth == 3 {
					cut = i
					break
				}
			} else if tok.Kind == event.EndElement {
				depth--
			}
		}
		if cut < 0 {
			// No third-level element existed, so no skip happened.
			if len(skip) != len(full) {
				t.Fatalf("no skip point but streams differ\ninput: %q", doc)
			}
			return
		}
		// Drop the skipped subtree from full: from cut to its matching end.
		d := 0
		end := cut
		for i := cut; i < len(full); i++ {
			if full[i].Kind == event.StartElement {
				d++
			} else if full[i].Kind == event.EndElement {
				d--
				if d == 0 {
					end = i
					break
				}
			}
		}
		want := append(append([]event.Token{}, full[:cut]...), full[end+1:]...)
		if len(want) != len(skip) {
			t.Fatalf("skip stream has %d events, want %d\ninput: %q", len(skip), len(want), doc)
		}
		for i := range want {
			if want[i].Kind != skip[i].Kind || want[i].Name != skip[i].Name || want[i].Text != skip[i].Text {
				t.Fatalf("skip stream diverges at %d: %+v vs %+v\ninput: %q", i, skip[i], want[i], doc)
			}
		}
	})
}
