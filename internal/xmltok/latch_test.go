package xmltok_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/iotest"

	"gcx/internal/core"
	"gcx/internal/engine"
	"gcx/internal/event"
	"gcx/internal/xmltok"
)

// startCounter counts the StartElements named name its Source delivers.
type startCounter struct {
	event.Source
	name string
	n    int
}

func (c *startCounter) Next() (event.Token, error) {
	tok, err := c.Source.Next()
	if err == nil && tok.Kind == event.StartElement && tok.Name == c.name {
		c.n++
	}
	return tok, err
}

// TestLatchDeadChildNeverDelivered pins the dynamic half of
// Preprojector.Dead (DESIGN.md §7, "The dead test"). Once
// exists($x/price) has its first witness, the [1] latch leaves a later
// price nothing to match, so Dead finds it dead and the tokenizer drops
// it. In the second case d matches $a/*[1] and fails self::c: d is alive
// for its latch flip alone, so that c, which is not the first child,
// finds the latch fired and is dead; dropping d with its flip would have
// matched c as if it came first. On every backing the output equals the
// DOM oracle's and the run's without skipping, count children named
// name are delivered, and each dead child costs what a statically dead
// one does: none of its tokens is delivered and both its tags count as
// skipped.
func TestLatchDeadChildNeverDelivered(t *testing.T) {
	cases := []struct {
		query, doc, name string
		count            int
		// dead children and the tokens they would have delivered.
		dead, deadTokens int64
	}{{
		query: `<r>{ for $x in /bib/* return if (exists $x/price) then $x/title else () }</r>`,
		doc:   `<bib><book><title>T</title><price>1</price><price>2</price><price>3</price></book></bib>`,
		name:  "price", count: 1, dead: 2, deadTokens: 6,
	}, {
		query: `<out>{ for $a in /r/a return if (exists($a/*[1]/self::c)) then "yes" else "no" }</out>`,
		doc:   `<r><a><d/><c/></a></r>`,
		name:  "c", count: 0, dead: 1, deadTokens: 2,
	}}
	for _, tc := range cases {
		plan, err := core.Compile(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Input{Format: core.FormatXML, Data: []byte(tc.doc)}
		var oracle strings.Builder
		if _, err := core.Run(context.Background(), plan, in, &oracle, engine.Config{Oracle: true}); err != nil {
			t.Fatal(err)
		}
		noSkipPlan := *plan
		noSkipPlan.Automaton = nil
		var noSkipOut strings.Builder
		noSkip, err := core.Run(context.Background(), &noSkipPlan, in, &noSkipOut, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if noSkipOut.String() != oracle.String() || noSkip.TagsSkipped != 0 {
			t.Fatalf("%s: without skipping: %q, %d tags skipped; DOM oracle: %q", tc.doc, noSkipOut.String(), noSkip.TagsSkipped, oracle.String())
		}

		backings := map[string]func() *xmltok.Tokenizer{
			"bytes":           func() *xmltok.Tokenizer { return xmltok.NewTokenizerBytes([]byte(tc.doc)) },
			"default reader":  func() *xmltok.Tokenizer { return xmltok.NewTokenizer(strings.NewReader(tc.doc)) },
			"one-byte reader": func() *xmltok.Tokenizer { return xmltok.NewTokenizer(iotest.OneByteReader(strings.NewReader(tc.doc))) },
		}
		for size := 16; size < 64; size++ {
			backings[fmt.Sprintf("reader window %d", size)] = func() *xmltok.Tokenizer {
				return xmltok.NewTokenizerWindow(strings.NewReader(tc.doc), size)
			}
		}
		for name, open := range backings {
			src := &startCounter{Source: open(), name: tc.name}
			var out bytes.Buffer
			e := engine.New(plan, src, xmltok.NewSerializer(&out), engine.Config{})
			res, err := e.Run()
			e.Release()
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.doc, name, err)
			}
			if out.String() != oracle.String() {
				t.Fatalf("%s, %s: output %q, DOM oracle %q", tc.doc, name, out.String(), oracle.String())
			}
			if src.n != tc.count {
				t.Errorf("%s, %s: %d %s start tags delivered, want %d", tc.doc, name, src.n, tc.name, tc.count)
			}
			if want := noSkip.TokensProcessed - tc.deadTokens; res.TokensProcessed != want {
				t.Errorf("%s, %s: %d tokens, want %d", tc.doc, name, res.TokensProcessed, want)
			}
			if want := noSkip.TagsSkipped + 2*tc.dead; res.TagsSkipped != want {
				t.Errorf("%s, %s: %d tags skipped, want %d", tc.doc, name, res.TagsSkipped, want)
			}
		}
	}
}
