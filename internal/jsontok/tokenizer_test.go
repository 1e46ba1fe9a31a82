package jsontok

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// drain tokenizes all of input and renders the event stream compactly:
// <name> for StartElement, </name> for EndElement, "text" for Text.
func drain(t *testing.T, input string) string {
	t.Helper()
	tz := NewTokenizer(strings.NewReader(input))
	defer tz.Release()
	var b strings.Builder
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return b.String()
		}
		if err != nil {
			t.Fatalf("Next: %v\npartial: %s", err, b.String())
		}
		switch tok.Kind {
		case event.StartElement:
			b.WriteString("<" + tok.Name + ">")
		case event.EndElement:
			b.WriteString("</" + tok.Name + ">")
		case event.Text:
			b.WriteString("%" + tok.Text + "%")
		}
	}
}

func TestMapping(t *testing.T) {
	cases := []struct{ in, want string }{
		// Scalars at the top level become records with text content.
		{`1`, `<root><record>%1%</record></root>`},
		{`"hi"`, `<root><record>%hi%</record></root>`},
		{`true`, `<root><record>%true%</record></root>`},
		{`false`, `<root><record>%false%</record></root>`},
		// null and the empty string map to an empty element.
		{`null`, `<root><record></record></root>`},
		{`""`, `<root><record></record></root>`},
		// Object members become child elements in document order.
		{`{"a":1,"b":"x"}`, `<root><record><a>%1%</a><b>%x%</b></record></root>`},
		// Arrays are repeated siblings under the inherited name.
		{`{"a":[1,2,3]}`, `<root><record><a>%1%</a><a>%2%</a><a>%3%</a></record></root>`},
		// Nested arrays flatten.
		{`{"a":[[1,2],[3]]}`, `<root><record><a>%1%</a><a>%2%</a><a>%3%</a></record></root>`},
		// Empty containers.
		{`{}`, `<root><record></record></root>`},
		{`{"a":[]}`, `<root><record></record></root>`},
		{`[]`, `<root></root>`},
		// A top-level array repeats the record element itself.
		{`[1,2]`, `<root><record>%1%</record><record>%2%</record></root>`},
		// NDJSON: one record per line.
		{"{\"a\":1}\n{\"a\":2}\n", `<root><record><a>%1%</a></record><record><a>%2%</a></record></root>`},
		// Concatenated / pretty-printed values also stream.
		{" {\n  \"a\" : 1\n } {\"b\":2}", `<root><record><a>%1%</a></record><record><b>%2%</b></record></root>`},
		// Nested objects.
		{`{"a":{"b":{"c":0}}}`, `<root><record><a><b><c>%0%</c></b></a></record></root>`},
		// Numbers keep their literal formatting.
		{`{"n":-1.5e+10}`, `<root><record><n>%-1.5e+10%</n></record></root>`},
		// Empty input is just the virtual root.
		{``, `<root></root>`},
		{"  \n ", `<root></root>`},
	}
	for _, c := range cases {
		if got := drain(t, c.in); got != c.want {
			t.Errorf("%q:\n got %s\nwant %s", c.in, got, c.want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	cases := []struct{ in, want string }{
		{`"a\"b"`, `a"b`},
		{`"a\\b"`, `a\b`},
		{`"a\/b"`, `a/b`},
		{`"\b\f\n\r\t"`, "\b\f\n\r\t"},
		{`"\u0041"`, "A"},
		{`"\u00e9"`, "é"},
		{`"\ud83d\ude00"`, "😀"}, // surrogate pair
		{`"\ud800"`, "\uFFFD"},  // lone high surrogate
		{`"\ud800x"`, "\uFFFDx"},
	}
	for _, c := range cases {
		got := drain(t, c.in)
		want := fmt.Sprintf("<root><record>%%%s%%</record></root>", c.want)
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", c.in, got, want)
		}
	}
}

// TestSyntaxErrors pins, on both backings, the offset and the message
// of every malformed input's error. The last two inputs are trailing
// commas, reported at the closing bracket; the token path accepted them
// before PR 19.
func TestSyntaxErrors(t *testing.T) {
	bad := []struct {
		in     string
		offset int64
		msg    string
	}{
		{"{", 1, "unexpected end of input inside object"},
		{"{\"a\"", 4, "unexpected end of input expecting ':' after object key"},
		{"{\"a\":", 5, "unexpected end of input expecting value"},
		{"{\"a\":1", 6, "unexpected end of input inside object"},
		{"{\"a\":1,", 7, "unexpected end of input inside object"},
		{"{,}", 1, "expected object key string, got ','"},
		{"{\"a\" 1}", 5, "expected ':' after object key, got '1'"},
		{"[1", 2, "unexpected end of input inside array"},
		{"[1,", 3, "unexpected end of input inside array"},
		{"]", 0, "unexpected ']' at start of value"},
		{"}", 0, "unexpected '}' at start of value"},
		{",", 0, "unexpected ',' at start of value"},
		{":", 0, "unexpected ':' at start of value"},
		{"tru", 3, "unexpected end of input expecting literal \"true\""},
		{"nul", 3, "unexpected end of input expecting literal \"null\""},
		{"falze", 3, "expected literal \"false\", got 'z'"},
		{"-", 1, "malformed number"},
		{"\"unterminated", 13, "unexpected end of input inside string"},
		{"\"bad \\q escape\"", 7, "invalid string escape '\\q'"},
		{"\"raw \x01 control\"", 6, "raw control character 0x01 in string"},
		{"{\"a\":1}}", 7, "unexpected '}' at start of value"},
		{"\"\\ud83d\\uq000\"", 10, "invalid hex digit 'q' in \\u escape"},
		{"\"\\u12\"", 6, "invalid hex digit '\"' in \\u escape"},
		{"{\"a\":1,}", 7, "expected object key string, got '}'"},
		{"[1,]", 3, "unexpected ']' at start of value"},
	}
	for _, c := range bad {
		for _, backing := range []string{"bytes", "reader"} {
			tz := NewTokenizerBytes([]byte(c.in))
			if backing == "reader" {
				tz = NewTokenizer(strings.NewReader(c.in))
			}
			var err error
			for err == nil {
				_, err = tz.Next()
			}
			tz.Release()
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%q on %s: got %v, want *SyntaxError", c.in, backing, err)
			} else if se.Offset != c.offset || se.Msg != c.msg {
				t.Errorf("%q on %s: got %d %q, want %d %q", c.in, backing, se.Offset, se.Msg, c.offset, c.msg)
			}
		}
	}
}

func TestReadErrorPropagates(t *testing.T) {
	broken := io.MultiReader(
		strings.NewReader(`{"a":`),
		iotest.ErrReader(fmt.Errorf("disk gone")),
	)
	tz := NewTokenizer(broken)
	defer tz.Release()
	var err error
	for err == nil {
		_, err = tz.Next()
	}
	if err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("want propagated read error, got %v", err)
	}
}

func TestOneByteReads(t *testing.T) {
	const in = `{"a":[1,"x\u0041"],"b":{"c":null}} {"d":true}`
	want := drain(t, in)
	tz := NewTokenizer(iotest.OneByteReader(strings.NewReader(in)))
	defer tz.Release()
	var b strings.Builder
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next under one-byte reads: %v", err)
		}
		switch tok.Kind {
		case event.StartElement:
			b.WriteString("<" + tok.Name + ">")
		case event.EndElement:
			b.WriteString("</" + tok.Name + ">")
		case event.Text:
			b.WriteString("%" + tok.Text + "%")
		}
	}
	if b.String() != want {
		t.Fatalf("one-byte reads diverge:\n got %s\nwant %s", b.String(), want)
	}
}

// TestSkipSubtree: skipping an object value raw-scans to its close
// brace and the stream resumes at the following sibling.
func TestSkipSubtree(t *testing.T) {
	const in = `{"skipme":{"deep":[1,2,{"x":"a }] string"}],"more":0},"keep":7}`
	tz := NewTokenizer(strings.NewReader(in))
	defer tz.Release()
	var b strings.Builder
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if tok.Kind == event.StartElement && tok.Name == "skipme" {
			if err := tz.SkipSubtree(); err != nil {
				t.Fatalf("SkipSubtree: %v", err)
			}
			continue
		}
		switch tok.Kind {
		case event.StartElement:
			b.WriteString("<" + tok.Name + ">")
		case event.EndElement:
			b.WriteString("</" + tok.Name + ">")
		case event.Text:
			b.WriteString("%" + tok.Text + "%")
		}
	}
	want := `<root><record><keep>%7%</keep></record></root>`
	if b.String() != want {
		t.Fatalf("after skip:\n got %s\nwant %s", b.String(), want)
	}
	if tz.SkipStats().SubtreesSkipped != 1 {
		t.Fatalf("SubtreesSkipped = %d, want 1", tz.SkipStats().SubtreesSkipped)
	}
	if tz.SkipStats().BytesSkipped == 0 {
		t.Fatal("BytesSkipped = 0 after a container skip")
	}
	// Members inside the skipped region: deep, x, more.
	if tz.SkipStats().TagsSkipped != 3 {
		t.Fatalf("TagsSkipped = %d, want 3", tz.SkipStats().TagsSkipped)
	}
}

// TestSkipScalar: skipping a scalar's element raw-scans its bytes —
// the value is never decoded and the skipped bytes are counted.
func TestSkipScalar(t *testing.T) {
	const in = `{"a":1,"b":2}`
	tz := NewTokenizer(strings.NewReader(in))
	defer tz.Release()
	var b strings.Builder
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if tok.Kind == event.StartElement && tok.Name == "a" {
			if err := tz.SkipSubtree(); err != nil {
				t.Fatalf("SkipSubtree: %v", err)
			}
			continue
		}
		switch tok.Kind {
		case event.StartElement:
			b.WriteString("<" + tok.Name + ">")
		case event.EndElement:
			b.WriteString("</" + tok.Name + ">")
		case event.Text:
			b.WriteString("%" + tok.Text + "%")
		}
	}
	want := `<root><record><b>%2%</b></record></root>`
	if b.String() != want {
		t.Fatalf("after scalar skip:\n got %s\nwant %s", b.String(), want)
	}
	if tz.SkipStats().BytesSkipped != 1 {
		t.Fatalf("BytesSkipped = %d, want 1 (the digit of a's value)", tz.SkipStats().BytesSkipped)
	}
}

// TestSkipScalarString: a skipped string scalar is raw-scanned past its
// escapes and closing quote; every byte of the value is counted and the
// stream resumes at the following member.
func TestSkipScalarString(t *testing.T) {
	const val = `"br } ace \" and \\ in string"`
	const in = `{"a":` + val + `,"b":true}`
	tz := NewTokenizer(strings.NewReader(in))
	defer tz.Release()
	var b strings.Builder
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if tok.Kind == event.StartElement && tok.Name == "a" {
			if err := tz.SkipSubtree(); err != nil {
				t.Fatalf("SkipSubtree: %v", err)
			}
			continue
		}
		switch tok.Kind {
		case event.StartElement:
			b.WriteString("<" + tok.Name + ">")
		case event.EndElement:
			b.WriteString("</" + tok.Name + ">")
		case event.Text:
			b.WriteString("%" + tok.Text + "%")
		}
	}
	want := `<root><record><b>%true%</b></record></root>`
	if b.String() != want {
		t.Fatalf("after string-scalar skip:\n got %s\nwant %s", b.String(), want)
	}
	if tz.SkipStats().BytesSkipped != int64(len(val)) {
		t.Fatalf("BytesSkipped = %d, want %d (the whole string value)", tz.SkipStats().BytesSkipped, len(val))
	}
}

// TestSkipRoot: skipping the virtual root consumes the whole stream,
// and TagsSkipped stays the lower bound stats.Run documents: the colons
// inside string values are not members (bytes.Count counted them before
// PR 19).
func TestSkipRoot(t *testing.T) {
	const in = `{"a":"x:y:z","b":{"c":":"}}` + "\n" + `{"d:e":"::"}`
	for _, backing := range []string{"bytes", "reader"} {
		tz := NewTokenizerBytes([]byte(in))
		if backing == "reader" {
			tz = NewTokenizer(strings.NewReader(in))
		}
		tok, err := tz.Next()
		if err != nil || tok.Kind != event.StartElement || tok.Name != event.RootName {
			t.Fatalf("%s: first event = %+v, %v", backing, tok, err)
		}
		if err := tz.SkipSubtree(); err != nil {
			t.Fatalf("%s: SkipSubtree(root): %v", backing, err)
		}
		if _, err := tz.Next(); err != io.EOF {
			t.Fatalf("%s: after root skip Next = %v, want io.EOF", backing, err)
		}
		want := event.SkipStats{BytesSkipped: int64(len(in)), TagsSkipped: 4, SubtreesSkipped: 1}
		if got := tz.SkipStats(); got != want {
			t.Fatalf("%s: SkipStats = %+v, want %+v (members a, b, c, d:e)", backing, got, want)
		}
		tz.Release()
	}
}

// TestDeepNesting: nesting up to the ceiling must not grow the goroutine
// stack (beginValue iterates instead of recursing).
func TestDeepNesting(t *testing.T) {
	const depth = event.MaxDepth
	in := strings.Repeat("[", depth) + "1" + strings.Repeat("]", depth)
	got := drain(t, in)
	if got != `<root><record>%1%</record></root>` {
		t.Fatalf("deep arrays: got %s", got)
	}
	tz := NewTokenizer(strings.NewReader(nestedObjects(depth)))
	defer tz.Release()
	n := 0
	for {
		_, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("deep objects: %v", err)
		}
		n++
	}
	if want := 2 + 2 + 2*depth + 1; n != want {
		t.Fatalf("deep objects: %d events, want %d", n, want)
	}
}

func nestedObjects(n int) string {
	return strings.Repeat(`{"a":`, n) + "1" + strings.Repeat("}", n)
}

// TestDepthCeiling: event.MaxDepth open containers are accepted (the
// test above, and the skip below), one more is a SyntaxError naming the
// ceiling on the token path, inside a raw skip and in a chunk the
// splitter cut, on both backings; a million unclosed levels fail the
// same way without the frame stack outgrowing the ceiling.
func TestDepthCeiling(t *testing.T) {
	// walk tokenizes doc; with skip set it skips the record, so all
	// nesting below the record's own object is seen by rawSkip only.
	walk := func(tz *Tokenizer, skip bool) error {
		defer tz.Release()
		for n := 0; ; n++ {
			_, err := tz.Next()
			if err == io.EOF {
				return nil
			}
			if err == nil && skip && n == 1 {
				err = tz.SkipSubtree()
			}
			if err != nil {
				return err
			}
		}
	}
	paths := []struct {
		name string
		run  func(doc string, fixed bool) error
	}{
		{"token", func(doc string, fixed bool) error {
			if fixed {
				return walk(NewTokenizerBytes([]byte(doc)), false)
			}
			return walk(NewTokenizer(strings.NewReader(doc)), false)
		}},
		{"skip", func(doc string, fixed bool) error {
			if fixed {
				return walk(NewTokenizerBytes([]byte(doc)), true)
			}
			return walk(NewTokenizer(strings.NewReader(doc)), true)
		}},
		{"split", func(doc string, fixed bool) error {
			sp := NewSplitter(strings.NewReader(doc))
			if fixed {
				sp = NewSplitterBytes([]byte(doc))
			}
			for {
				c, err := sp.Next()
				if err == io.EOF {
					return nil
				}
				if err == nil {
					err = walk(NewTokenizerBytes(c.Data), false)
				}
				if err != nil {
					return err
				}
			}
		}},
	}
	isCeiling := func(err error) bool {
		var se *SyntaxError
		return errors.As(err, &se) && strings.Contains(se.Msg, "nested deeper")
	}
	hostile := strings.Repeat(`{"a":[`, 1<<19)
	for _, p := range paths {
		for _, fixed := range []bool{true, false} {
			name := p.name + "/reader"
			if fixed {
				name = p.name + "/bytes"
			}
			t.Run(name, func(t *testing.T) {
				if err := p.run(nestedObjects(event.MaxDepth), fixed); err != nil {
					t.Errorf("depth %d rejected: %v", event.MaxDepth, err)
				}
				if err := p.run(nestedObjects(event.MaxDepth+1), fixed); !isCeiling(err) {
					t.Errorf("depth %d: got %v, want the depth ceiling's SyntaxError", event.MaxDepth+1, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := p.run(hostile, fixed)
				runtime.ReadMemStats(&after)
				if !isCeiling(err) {
					t.Fatalf("1 Mi levels: got %v, want the depth ceiling's SyntaxError", err)
				}
				// The bytes backing copies the 3 MiB input once. The split
				// path is not held to the bound: its memory is the line the
				// NDJSON splitter has to assemble, whatever is in it.
				if grown := after.TotalAlloc - before.TotalAlloc; p.name != "split" && grown > uint64(len(hostile))+1<<20 {
					t.Errorf("1 Mi levels: allocated %d bytes before failing", grown)
				}
			})
		}
	}
}

func TestKeyInterning(t *testing.T) {
	tz := NewTokenizer(strings.NewReader(`{"key":1}` + "\n" + `{"key":2}`))
	defer tz.Release()
	var names []string
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == event.StartElement && tok.Name == "key" {
			names = append(names, tok.Name)
		}
	}
	if len(names) != 2 {
		t.Fatalf("saw %d key elements, want 2", len(names))
	}
}

func TestTokenCount(t *testing.T) {
	tz := NewTokenizer(strings.NewReader(`{"a":1}`))
	defer tz.Release()
	n := int64(0)
	for {
		_, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if tz.TokenCount() != n {
		t.Fatalf("TokenCount = %d, delivered %d", tz.TokenCount(), n)
	}
}

// TestTextLifetimeOnReader: on the reader backing a scalar's Text —
// plain string, unescaped string or number — is a view the next pull
// overwrites, names are for good, and the byte backing keeps both.
func TestTextLifetimeOnReader(t *testing.T) {
	const doc = `{"plain":"abc","esc":"a\nb","num":-12.5e3}`
	texts := []string{"abc", "a\nb", "-12.5e3"}
	for _, volatile := range []bool{true, false} {
		tz := NewTokenizerBytes([]byte(doc))
		if volatile {
			tz = NewTokenizer(strings.NewReader(doc))
		}
		if tz.Volatile() != volatile {
			t.Fatalf("Volatile() = %v, want %v", tz.Volatile(), volatile)
		}
		var names, kept []string // deliberately not cloned
		for {
			tok, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			switch tok.Kind {
			case event.StartElement:
				names = append(names, tok.Name)
			case event.Text:
				kept = append(kept, tok.Text)
			}
		}
		tz.Release()
		if got := strings.Join(names, " "); got != "root record plain esc num" {
			t.Errorf("volatile=%v: names read %q after the stream", volatile, got)
		}
		for i, want := range texts {
			if survived := kept[i] == want; survived == volatile {
				t.Errorf("volatile=%v: kept text %q reads %q after the stream", volatile, want, kept[i])
			}
		}
	}
}

// TestReleaseDropsLargeScratch: one huge escaped string must not leave
// the pooled tokenizer holding a scratch of that size for every later
// run.
func TestReleaseDropsLargeScratch(t *testing.T) {
	tz := NewTokenizer(strings.NewReader(`{"a":"\n` + strings.Repeat("x", 2*cursor.MaxScratch) + `"}`))
	for {
		if _, err := tz.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if cap(tz.textBuf) < 2*cursor.MaxScratch {
		t.Fatalf("the string went through a %d-byte scratch: the test does not reach the case", cap(tz.textBuf))
	}
	tz.Release()
	// Whichever tokenizer the pool hands out next, the released one or a
	// fresh one, it carries no more than the ceiling.
	next := NewTokenizer(strings.NewReader(`{}`))
	defer next.Release()
	if cap(tz.textBuf) > cursor.MaxScratch || cap(next.textBuf) > cursor.MaxScratch {
		t.Errorf("pooled scratch: released %d bytes, reacquired %d, ceiling %d", cap(tz.textBuf), cap(next.textBuf), cursor.MaxScratch)
	}
}
