package xmltok

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"gcx/internal/event"
)

// depthPaths are the three ways a document's nesting is walked — token
// by token, by one raw skip from the given depth, and by the splitter
// (records at /a/a, so the skip starts at depth 2) — each on both
// backings. Every one returns the first error.
var depthPaths = []struct {
	name string
	run  func(doc string, fixed bool) error
}{
	{"token", func(doc string, fixed bool) error { return walkSkippingAt(doc, fixed, 0) }},
	{"skip@1", func(doc string, fixed bool) error { return walkSkippingAt(doc, fixed, 1) }},
	{"skip@100", func(doc string, fixed bool) error { return walkSkippingAt(doc, fixed, 100) }},
	{"split", func(doc string, fixed bool) error {
		path := []SplitStep{{Name: "a"}, {Name: "a"}}
		sp := NewSplitter(strings.NewReader(doc), path)
		if fixed {
			sp = NewSplitterBytes([]byte(doc), path)
		}
		for {
			if _, err := sp.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}},
}

// walkSkippingAt tokenizes doc, calling SkipSubtree on the skipAt-th
// StartElement (0: never).
func walkSkippingAt(doc string, fixed bool, skipAt int) error {
	tz := NewTokenizer(strings.NewReader(doc))
	if fixed {
		tz = NewTokenizerBytes([]byte(doc))
	}
	defer tz.Release()
	for starts := 0; ; {
		tok, err := tz.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if tok.Kind == StartElement {
			if starts++; starts == skipAt {
				if err := tz.SkipSubtree(); err != nil {
					return err
				}
			}
		}
	}
}

// TestDepthCeiling: nesting of exactly event.MaxDepth is accepted, one
// level more is a SyntaxError naming the ceiling — also when the last
// element is self-closing — and a million unclosed levels fail the same
// way having allocated next to nothing: the open-element stacks never
// outgrow the ceiling.
func TestDepthCeiling(t *testing.T) {
	nested := func(n int) string { return strings.Repeat("<a>", n) + strings.Repeat("</a>", n) }
	atLimit := nested(event.MaxDepth)
	over := nested(event.MaxDepth + 1)
	overEmpty := strings.Repeat("<a>", event.MaxDepth) + "<a/>" + strings.Repeat("</a>", event.MaxDepth)
	hostile := strings.Repeat("<a>", 1<<20)
	for _, p := range depthPaths {
		for _, fixed := range []bool{true, false} {
			name := p.name + "/reader"
			if fixed {
				name = p.name + "/bytes"
			}
			t.Run(name, func(t *testing.T) {
				if err := p.run(atLimit, fixed); err != nil {
					t.Errorf("depth %d rejected: %v", event.MaxDepth, err)
				}
				for _, doc := range []string{over, overEmpty} {
					var se *SyntaxError
					if err := p.run(doc, fixed); !errors.As(err, &se) || !strings.Contains(se.Msg, "nested deeper") {
						t.Errorf("depth %d: got %v, want the depth ceiling's SyntaxError", event.MaxDepth+1, err)
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := p.run(hostile, fixed)
				runtime.ReadMemStats(&after)
				var se *SyntaxError
				if !errors.As(err, &se) || !strings.Contains(se.Msg, "nested deeper") {
					t.Fatalf("1 Mi levels: got %v, want the depth ceiling's SyntaxError", err)
				}
				if se.Offset > 4*(event.MaxDepth+1) {
					t.Errorf("1 Mi levels: failed at byte %d, want within the first %d levels", se.Offset, event.MaxDepth+1)
				}
				// The bytes backing copies the 3 MiB input once ([]byte(doc)).
				if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(len(hostile))+1<<20 {
					t.Errorf("1 Mi levels: allocated %d bytes before failing", grown)
				}
			})
		}
	}
}
