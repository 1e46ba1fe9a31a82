package xmltok

import (
	"io"
	"strings"
	"testing"

	"gcx/internal/event"
	"gcx/internal/xmark"
)

// BenchmarkTokenizerWhitespace regression-benches the whitespace fast
// path of readText: heavily indented documents (the usual
// pretty-printed shape) spend a large share of their text tokens on
// whitespace-only runs that are dropped when KeepWhitespace is unset —
// those must never reach the entity machinery or allocate.
func BenchmarkTokenizerWhitespace(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<root>\n")
	for i := 0; i < 5000; i++ {
		sb.WriteString("  <entry>\n    <key>name</key>\n    <value>v&amp;v</value>\n  </entry>\n")
	}
	sb.WriteString("</root>\n")
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tz := NewTokenizer(strings.NewReader(doc))
		for {
			_, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		tz.Release()
	}
}

// BenchmarkTokenizerWhitespaceEntities targets the worst historical
// case: whitespace-only text written as character references (&#32;
// &#10;), which used to be fully decoded through the allocating entity
// path before being dropped.
func BenchmarkTokenizerWhitespaceEntities(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 5000; i++ {
		sb.WriteString("&#32;&#9;&#10;<e/>")
	}
	sb.WriteString("</root>")
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tz := NewTokenizer(strings.NewReader(doc))
		for {
			_, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		tz.Release()
	}
}

// BenchmarkSkipSubtree measures the raw fast-forward against full
// tokenization of the same subtree — the per-byte cost ratio that
// makes projection-guided skipping worthwhile (DESIGN.md §7).
func BenchmarkSkipSubtree(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<root><keep/>")
	sb.WriteString("<dead>")
	for i := 0; i < 4000; i++ {
		sb.WriteString(`<item id="i"><name>gold silver</name><description><text>a longer run of text that looks like xmark prose, with several words</text></description></item>`)
	}
	sb.WriteString("</dead></root>")
	doc := sb.String()
	b.SetBytes(int64(len(doc)))

	b.Run("skip", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tz := NewTokenizer(strings.NewReader(doc))
			for {
				tok, err := tz.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if tok.Kind == StartElement && tok.Name == "dead" {
					if err := tz.SkipSubtree(); err != nil {
						b.Fatal(err)
					}
				}
			}
			tz.Release()
		}
	})
	b.Run("tokenize", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tz := NewTokenizer(strings.NewReader(doc))
			for {
				_, err := tz.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			tz.Release()
		}
	})
}

// bodySkipper answers as a run of XMark Q6 does: the item bodies'
// elements get v, Dead or Seek for sought, the sections beside the
// regions are dead, and the rest is live.
type bodySkipper struct {
	body, other map[string]bool
	v           event.Verdict
	sought      []string
}

func (s bodySkipper) Child(name string) (event.Verdict, []string) {
	switch {
	case s.body[name]:
		return s.v, s.sought
	case s.other[name]:
		return event.Dead, nil
	}
	return event.Live, nil
}

// BenchmarkSeek times a seek (DESIGN.md §7, "Seeking below descendant
// steps") against a plain skip over the same bytes: 16 MiB of XMark
// whose item bodies — everything in an item but its name — are found
// dead (skip, through SkipSubtree's loop) or sought for item, of which
// they hold none (seek). Both deliver the same tokens. Besides
// BenchmarkSkipSubtree, which times the plain skip alone, it shows what
// a seek adds to the scan.
func BenchmarkSeek(b *testing.B) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 16 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := []byte(doc)
	body := map[string]bool{"location": true, "quantity": true, "payment": true, "description": true, "shipping": true, "incategory": true, "mailbox": true}
	other := map[string]bool{"categories": true, "catgraph": true, "people": true, "open_auctions": true, "closed_auctions": true}
	for _, mode := range []struct {
		name string
		v    event.Verdict
	}{{"skip", event.Dead}, {"seek", event.Seek}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for range b.N {
				tz := NewTokenizerBytes(data)
				tz.SetSkipper(bodySkipper{body, other, mode.v, []string{"item"}})
				for {
					_, err := tz.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				tz.Release()
			}
		})
	}
}
