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
// TestLatchDeadChildNeverDelivered: the items of "price":[…] are
// repeated price elements, and after the first one the [1] latch of
// exists($x/price) leaves the others nothing to match, so Dead finds
// them dead and the tokenizer raw-skips each before its StartElement.
// The tokenizer asks Dead at the array's '[' and again at its first
// item (event.Skipper): the first answer must leave the second
// unchanged, or the witness would be lost and the output would differ.
// An empty array is asked about at its '[' and never delivered, which
// must leave no trace either: in the third record a namesake follows
// its parent, in the fourth the witness is a later price. On every
// backing the output equals the DOM oracle's and the run's without
// skipping, only the first price of each element is delivered, and
// each latch-dead item costs none of its three tokens and counts both
// tags as skipped.
func TestLatchDeadItemNeverDelivered(t *testing.T) {
	const (
		query = `<r>{ for $x in /root/record/* return if (exists $x/price) then $x/title else () }</r>`
		doc   = `{"book":{"title":"T","price":[1,2,3]}}` + "\n" +
			`{"book":{"price":[4,5,6],"title":"U"}}` + "\n" +
			`{"book":{"title":"V","price":[]},"price":{"title":"W","price":7}}` + "\n" +
			`{"book":{"price":[],"title":"X","price":8}}` + "\n"
		dead = 4
	)
	plan, err := core.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Automaton == nil {
		t.Fatal("no skip automaton")
	}
	in := core.Input{Format: core.FormatNDJSON, Data: []byte(doc)}
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
	if noSkipOut.String() != oracle.String() || !strings.Contains(oracle.String(), "W") || !strings.Contains(oracle.String(), "X") || noSkip.TagsSkipped != 0 {
		t.Fatalf("without skipping: %q, %d tags skipped; DOM oracle: %q", noSkipOut.String(), noSkip.TagsSkipped, oracle.String())
	}

	backings := map[string]func() *jsontok.Tokenizer{
		"bytes":           func() *jsontok.Tokenizer { return jsontok.NewTokenizerBytes([]byte(doc)) },
		"default reader":  func() *jsontok.Tokenizer { return jsontok.NewTokenizer(strings.NewReader(doc)) },
		"one-byte reader": func() *jsontok.Tokenizer { return jsontok.NewTokenizer(iotest.OneByteReader(strings.NewReader(doc))) },
	}
	for size := 16; size < 64; size++ {
		backings[fmt.Sprintf("reader window %d", size)] = func() *jsontok.Tokenizer {
			return jsontok.NewTokenizerWindow(strings.NewReader(doc), size)
		}
	}
	for name, open := range backings {
		src := &startCounter{Source: open(), name: "price"}
		var out bytes.Buffer
		e := engine.New(plan, src, jsontok.NewSerializer(&out), engine.Config{})
		res, err := e.Run()
		e.Release()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.String() != oracle.String() {
			t.Fatalf("%s: output %q, DOM oracle %q", name, out.String(), oracle.String())
		}
		if src.n != 5 {
			t.Errorf("%s: %d price start tags delivered, want 5", name, src.n)
		}
		if want := noSkip.TokensProcessed - 3*dead; res.TokensProcessed != want {
			t.Errorf("%s: %d tokens, want %d", name, res.TokensProcessed, want)
		}
		if want := noSkip.TagsSkipped + 2*dead; res.TagsSkipped != want {
			t.Errorf("%s: %d tags skipped, want %d", name, res.TagsSkipped, want)
		}
	}
}
