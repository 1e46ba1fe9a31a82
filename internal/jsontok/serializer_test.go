package jsontok

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"gcx/internal/event"
)

func TestSerializerBasics(t *testing.T) {
	var b strings.Builder
	s := NewSerializer(&b)
	s.StartElement("r", nil)
	s.StartElement("a", nil)
	s.Text("1")
	s.EndElement("a")
	s.StartElement("a", nil)
	s.Text("two")
	s.EndElement("a")
	s.StartElement("empty", nil)
	s.EndElement("empty")
	s.EndElement("r")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.BytesWritten() != int64(b.Len()) {
		t.Fatalf("BytesWritten = %d, wrote %d", s.BytesWritten(), b.Len())
	}
	s.Release()
	want := `{"r":[{"a":["1"]},{"a":["two"]},{"empty":[]}]}` + "\n"
	if b.String() != want {
		t.Fatalf("got %q, want %q", b.String(), want)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatalf("output is not valid JSON: %q", b.String())
	}
}

func TestSerializerAttrsAndEscapes(t *testing.T) {
	var b strings.Builder
	s := NewSerializer(&b)
	s.StartElement("e", []event.Attr{{Name: "id", Value: `q"v`}})
	s.Text("line\nbreak\ttab \x01")
	s.EndElement("e")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Release()
	want := `{"e":[{"@id":["q\"v"]},"line\nbreak\ttab \u0001"]}` + "\n"
	if b.String() != want {
		t.Fatalf("got %q, want %q", b.String(), want)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatalf("output is not valid JSON: %q", b.String())
	}
}

// TestSerializerTopLevelItems: every complete top-level item gets its
// own line and no state crosses items — the property that makes sharded
// output concatenation byte-identical.
func TestSerializerTopLevelItems(t *testing.T) {
	var whole strings.Builder
	s := NewSerializer(&whole)
	emit := func(s *Serializer, n int) {
		for i := 0; i < n; i++ {
			s.StartElement("x", nil)
			s.Text("v")
			s.EndElement("x")
			s.Text("bare")
		}
	}
	emit(s, 3)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if got := strings.Count(whole.String(), "\n"); got != 6 {
		t.Fatalf("6 top-level items want 6 newlines, got %d\n%q", got, whole.String())
	}

	var a, b strings.Builder
	sa := NewSerializer(&a)
	emit(sa, 2)
	sa.Flush()
	sa.Release()
	sb := NewSerializer(&b)
	emit(sb, 1)
	sb.Flush()
	sb.Release()
	if a.String()+b.String() != whole.String() {
		t.Fatalf("concatenated shard outputs differ from sequential:\n%q\n%q", a.String()+b.String(), whole.String())
	}
}

// TestRoundTrip: serializing a tokenized stream reproduces equivalent
// JSON (tokenize → serialize → tokenize yields the same events).
func TestRoundTrip(t *testing.T) {
	const in = `{"a":[1,2],"b":{"c":"x","d":null}}` + "\n" + `{"e":true}`
	events := func(input string) []event.Token {
		tz := NewTokenizer(strings.NewReader(input))
		defer tz.Release()
		var out []event.Token
		for {
			tok, err := tz.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			out = append(out, tok.Clone())
		}
	}
	first := events(in)
	var b strings.Builder
	s := NewSerializer(&b)
	for _, tok := range first {
		switch tok.Kind {
		case event.StartElement:
			if tok.Name == event.RootName {
				continue // the virtual root is not serialized
			}
			s.StartElement(tok.Name, tok.Attrs)
		case event.EndElement:
			if tok.Name == event.RootName {
				continue
			}
			s.EndElement(tok.Name)
		case event.Text:
			s.Text(tok.Text)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Release()
	second := events(b.String())
	// The re-tokenized stream nests each record under the serializer's
	// single-key-object encoding, so compare names/texts loosely: every
	// text and element name of the first stream must appear in order.
	var f1, f2 strings.Builder
	for _, tok := range first {
		if tok.Kind == event.Text {
			f1.WriteString("%" + tok.Text + "%")
		}
	}
	for _, tok := range second {
		if tok.Kind == event.Text {
			f2.WriteString("%" + tok.Text + "%")
		}
	}
	if f1.String() != f2.String() {
		t.Fatalf("text content diverges after round trip:\n%s\n%s", f1.String(), f2.String())
	}
}
