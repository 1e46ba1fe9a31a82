package jsontok

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// The raw skip loops as they stood before PR 19 — one byte at a time
// through an inStr/escaped state machine — kept as the oracle of the
// block scan that replaced them (as PR 12 kept the map evaluator). They
// run over the whole remaining input at once and return how many bytes
// they consumed instead of advancing a cursor; nothing else changed.

var (
	errOracleEOF  = errors.New("input ends inside the skipped value")
	errOracleDeep = errors.New("nested deeper than event.MaxDepth")
)

// oracleRawSkip consumes the rest of an object whose '{' is consumed,
// depth containers being open with it: n bytes through its closing
// brace, tags ':' outside strings. On errOracleDeep n is the offset of
// the offending bracket.
func oracleRawSkip(buf []byte, depth int) (n int, tags int64, err error) {
	outer := depth - 1
	inStr := false
	escaped := false
	for i := 0; i < len(buf); i++ {
		c := buf[i]
		if inStr {
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			if depth++; depth > event.MaxDepth {
				return i, tags, errOracleDeep
			}
		case '}', ']':
			depth--
			if depth == outer {
				return i + 1, tags, nil
			}
		case ':':
			tags++
		}
	}
	return len(buf), tags, errOracleEOF
}

// oracleSkipScalar consumes one scalar at buf[0]: a string to its
// closing quote honoring escapes, a number or keyword to the next
// structural delimiter.
func oracleSkipScalar(buf []byte) (n int, err error) {
	if buf[0] == '"' {
		escaped := false
		for i := 1; i < len(buf); i++ {
			c := buf[i]
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				return i + 1, nil
			}
		}
		return len(buf), errOracleEOF
	}
	i := 0
scan:
	for i < len(buf) {
		switch buf[i] {
		case ',', '}', ']', ' ', '\t', '\r', '\n':
			break scan
		}
		i++
	}
	return i, nil
}

// skipAtA tokenizes doc, a record whose first member is "a", up to a's
// StartElement, skips it and checks the landing offset, the counters
// and the error class against the oracle run from the same offset.
func skipAtA(t *testing.T, doc []byte, tz *Tokenizer, what string) {
	t.Helper()
	defer tz.Release()
	for {
		tok, err := tz.Next()
		if err != nil {
			t.Fatalf("%s: no element a: %v\ninput: %.300q", what, err, doc)
		}
		if tok.Kind == event.StartElement && tok.Name == "a" {
			break
		}
	}
	at := int(tz.cur.Offset())
	var n int
	var tags int64
	var want error
	if tz.scalarPending {
		n, want = oracleSkipScalar(doc[at:])
		tags = 1 // the unproduced EndElement
	} else {
		n, tags, want = oracleRawSkip(doc[at:], len(tz.stack)-1)
	}
	err := tz.SkipSubtree()
	var se *SyntaxError
	class := error(nil)
	switch {
	case errors.As(err, &se) && strings.Contains(se.Msg, "nested deeper"):
		class = errOracleDeep
	case errors.As(err, &se) && strings.Contains(se.Msg, "unexpected end of input"):
		class = errOracleEOF
	case err != nil:
		t.Fatalf("%s: SkipSubtree: %v\ninput: %.300q", what, err, doc)
	}
	if class != want {
		t.Fatalf("%s: SkipSubtree = %v, oracle: %v\ninput: %.300q", what, err, want, doc)
	}
	if got := int(tz.cur.Offset()); got != at+n {
		t.Fatalf("%s: landed at %d, oracle at %d\ninput: %.300q", what, got, at+n, doc)
	}
	if want != nil {
		return // counters of a failed skip depend on where its blocks fell
	}
	if got, want := tz.SkipStats(), (event.SkipStats{BytesSkipped: int64(n), TagsSkipped: tags, SubtreesSkipped: 1}); got != want {
		t.Fatalf("%s: SkipStats %+v, oracle %+v\ninput: %.300q", what, got, want, doc)
	}
}

// genValue writes a random JSON value: strings dense in escapes, quotes
// and structural bytes, containers up to depth levels, whitespace at
// every place the grammar allows it.
func genValue(r *rand.Rand, b *strings.Builder, depth int) {
	ws := func() { b.WriteString([]string{"", "", "", " ", "\n", "\t \r"}[r.Intn(6)]) }
	str := func() {
		b.WriteByte('"')
		for n := r.Intn(6); n > 0; n-- {
			b.WriteString([]string{`x`, `\"`, `\\`, `\\\"`, `:`, `{`, `]`, `,`, `é`, ` `, `é`, `\n`}[r.Intn(12)])
		}
		b.WriteByte('"')
	}
	kind := r.Intn(8)
	if depth == 0 && kind < 2 {
		kind += 2
	}
	switch kind {
	case 0:
		b.WriteByte('{')
		for i, n := 0, r.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			ws()
			str()
			ws()
			b.WriteByte(':')
			ws()
			genValue(r, b, depth-1)
			ws()
		}
		ws()
		b.WriteByte('}')
	case 1:
		b.WriteByte('[')
		for i, n := 0, r.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			ws()
			genValue(r, b, depth-1)
			ws()
		}
		b.WriteByte(']')
	case 2, 3, 4:
		str()
	case 5:
		b.WriteString([]string{"0", "-1.5e+10", "12345678", "3.25"}[r.Intn(4)])
	default:
		b.WriteString([]string{"true", "false", "null"}[r.Intn(3)])
	}
}

// TestRawSkipAgainstOracle is the property test of the block scan:
// generated values — whole, cut short, and nested past the ceiling —
// are skipped on the slice backing and through every two-read split of
// the input, and each run must agree with the byte-at-a-time oracle.
func TestRawSkipAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var docs [][]byte
	for i := 0; i < 150; i++ {
		var b strings.Builder
		b.WriteString(`{ "a" : `)
		if i%3 == 0 {
			b.WriteString(`{"k":`) // an object: the container skip
			genValue(r, &b, 3)
			b.WriteByte('}')
		} else {
			genValue(r, &b, 0)
		}
		b.WriteString(` ,"z":0}` + "\n")
		doc := []byte(b.String())
		if !json.Valid(doc) {
			t.Fatalf("generator wrote invalid JSON: %q", doc)
		}
		docs = append(docs, doc)
		if i%5 == 0 { // cut short, at least one byte into the value
			docs = append(docs, doc[:9+r.Intn(len(doc)-17)])
		}
	}
	open := strings.Repeat(`[{"d":`, event.MaxDepth/2)
	docs = append(docs,
		[]byte(`{"a":{"k":`+open+`1}`),         // ceiling reached, input ends
		[]byte(`{"a":{"k":`+open+`[[1]]}`),     // one past it
		[]byte(`{"a":{"k":"`+open+`"},"z":0}`), // brackets in a string do not nest
	)
	for _, doc := range docs {
		skipAtA(t, doc, NewTokenizerBytes(doc), "bytes")
		for k := 0; k <= len(doc); k++ {
			two := io.MultiReader(bytes.NewReader(doc[:k]), bytes.NewReader(doc[k:]))
			skipAtA(t, doc, NewTokenizer(two), fmt.Sprintf("reader split at %d", k))
		}
	}
}

// TestStringScanBlockEdges places the sequences the string scan's
// backslash parity has to get right — an escaped quote, an escaped
// backslash before the closing quote, odd and even runs — across the
// cursor's 64 KiB block stride, counted from the start of the input
// (where a reader's window ends) and from the start of the value
// (where a skip's first block ends), on both backings. The skip must
// land where the oracle does, and tokenizing must decode the string as
// encoding/json does.
func TestStringScanBlockEdges(t *testing.T) {
	// closes: the sequence's last quote ends the string.
	seqs := []struct {
		seq    string
		closes bool
	}{{`\"`, false}, {`\\"`, true}, {`\\\"`, false}, {`\\\\"`, true}, {`\\\\\"`, false}, {`\"\"\\`, false}, {`\"\"\"\\\\\"\"`, false}}
	const head = `{"a":"`
	for _, c := range seqs {
		seq := c.seq
		for _, edge := range []int{cursor.DefaultSize - 1, cursor.DefaultSize, cursor.DefaultSize + 1} {
			for _, fromValue := range []bool{false, true} {
				for shift := 0; shift < len(seq); shift++ {
					// seq[shift] sits at offset edge.
					pad := edge - shift - len(head)
					if fromValue {
						pad = edge - shift - 1 // the skip starts at the opening quote
					}
					text := strings.Repeat("x", pad) + seq
					if !c.closes {
						text += `tail"`
					}
					doc := []byte(head + text + `,"b":"kept"}`)
					var rec struct{ A, B string }
					if err := json.Unmarshal(doc, &rec); err != nil {
						t.Fatalf("test document invalid: %v (%q…)", err, seq)
					}
					for _, backing := range []string{"bytes", "reader"} {
						open := func() *Tokenizer {
							if backing == "bytes" {
								return NewTokenizerBytes(doc)
							}
							return NewTokenizer(bytes.NewReader(doc))
						}
						what := backing + " " + seq
						skipAtA(t, doc, open(), what)
						tz := open()
						var texts []string
						for {
							tok, err := tz.Next()
							if err == io.EOF {
								break
							}
							if err != nil {
								t.Fatalf("%s at %d+%d: %v", what, edge, shift, err)
							}
							if tok.Kind == event.Text {
								texts = append(texts, tok.Clone().Text)
							}
						}
						tz.Release()
						if len(texts) != 2 || texts[0] != rec.A || texts[1] != rec.B {
							t.Fatalf("%s at %d+%d: decoded %d texts, a ends %q, b = %q; want a ending %q, b = %q",
								what, edge, shift, len(texts), tail(texts, 0), tail(texts, 1), tail([]string{rec.A}, 0), rec.B)
						}
					}
				}
			}
		}
	}
}

// tail returns the last bytes of texts[i] for a failure message.
func tail(texts []string, i int) string {
	if i >= len(texts) {
		return "<missing>"
	}
	s := texts[i]
	return s[max(0, len(s)-12):]
}
