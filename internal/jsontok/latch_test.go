package jsontok_test

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
	"gcx/internal/jsontok"
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

// TestLatchDeadItemNeverDelivered is the NDJSON form of xmltok's
// TestLatchDeadChildNeverDelivered. In the first case the items of
// "price":[…] are repeated price elements, and after the first one the
// [1] latch of exists($x/price) leaves the others nothing to match, so
// Dead finds them dead and the tokenizer raw-skips each before its
// StartElement. The tokenizer asks Dead at the array's '[' and again at
// its first item (event.Skipper): the first answer must leave the second
// unchanged, or the witness would be lost and the output would differ.
// An empty array is asked about at its '[' and never delivered, which
// must leave no trace either: in the third record a namesake follows
// its parent, in the fourth the witness is a later price.
//
// In the second case d matches $a/*[1] and fails self::c, so d is alive
// for its latch flip alone and a later c is dead. An empty "d":[] has no
// element to flip the latch, so there c is the first child (the second
// record); a non-empty one flips it with its first item, and the later
// items of d are dead too (the third).
//
// On every backing the output equals the DOM oracle's and the run's
// without skipping, count elements named name are delivered, and each
// dead item costs none of its three tokens and counts both tags as
// skipped.
func TestLatchDeadItemNeverDelivered(t *testing.T) {
	cases := []struct {
		query, doc, name string
		count            int
		dead             int64
	}{{
		query: `<r>{ for $x in /root/record/* return if (exists $x/price) then $x/title else () }</r>`,
		doc: `{"book":{"title":"T","price":[1,2,3]}}` + "\n" +
			`{"book":{"price":[4,5,6],"title":"U"}}` + "\n" +
			`{"book":{"title":"V","price":[]},"price":{"title":"W","price":7}}` + "\n" +
			`{"book":{"price":[],"title":"X","price":8}}` + "\n",
		name: "price", count: 5, dead: 4,
	}, {
		query: `<out>{ for $a in /root/record/a return if (exists($a/*[1]/self::c)) then "yes" else "no" }</out>`,
		doc: `{"a":{"d":1,"c":2}}` + "\n" +
			`{"a":{"d":[],"c":3}}` + "\n" +
			`{"a":{"d":[4,5],"c":6}}` + "\n",
		name: "c", count: 1, dead: 3,
	}}
	for _, tc := range cases {
		plan, err := core.Compile(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Input{Format: core.FormatNDJSON, Data: []byte(tc.doc)}
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
			t.Fatalf("%s: without skipping: %q, %d tags skipped; DOM oracle: %q", tc.query, noSkipOut.String(), noSkip.TagsSkipped, oracle.String())
		}

		backings := map[string]func() *jsontok.Tokenizer{
			"bytes":          func() *jsontok.Tokenizer { return jsontok.NewTokenizerBytes([]byte(tc.doc)) },
			"default reader": func() *jsontok.Tokenizer { return jsontok.NewTokenizer(strings.NewReader(tc.doc)) },
			"one-byte reader": func() *jsontok.Tokenizer {
				return jsontok.NewTokenizer(iotest.OneByteReader(strings.NewReader(tc.doc)))
			},
		}
		for size := 16; size < 64; size++ {
			backings[fmt.Sprintf("reader window %d", size)] = func() *jsontok.Tokenizer {
				return jsontok.NewTokenizerWindow(strings.NewReader(tc.doc), size)
			}
		}
		for name, open := range backings {
			src := &startCounter{Source: open(), name: tc.name}
			var out bytes.Buffer
			e := engine.New(plan, src, jsontok.NewSerializer(&out), engine.Config{})
			res, err := e.Run()
			e.Release()
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.query, name, err)
			}
			if out.String() != oracle.String() {
				t.Fatalf("%s, %s: output %q, DOM oracle %q", tc.query, name, out.String(), oracle.String())
			}
			if src.n != tc.count {
				t.Errorf("%s, %s: %d %s start tags delivered, want %d", tc.query, name, src.n, tc.name, tc.count)
			}
			if want := noSkip.TokensProcessed - 3*tc.dead; res.TokensProcessed != want {
				t.Errorf("%s, %s: %d tokens, want %d", tc.query, name, res.TokensProcessed, want)
			}
			if want := noSkip.TagsSkipped + 2*tc.dead; res.TagsSkipped != want {
				t.Errorf("%s, %s: %d tags skipped, want %d", tc.query, name, res.TagsSkipped, want)
			}
		}
	}
}
