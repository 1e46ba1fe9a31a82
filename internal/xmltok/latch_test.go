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
// Preprojector.Dead (DESIGN.md §7, "Runtime"). Once exists($x/price)
// has its first witness, the [1] latch leaves a later price nothing to
// match: the automaton, which ignores latches, finds it alive, Dead
// finds it dead, and the tokenizer drops it as it drops a statically
// dead child. On every backing the output equals the DOM oracle's and
// the run's without skipping, only the first price is delivered, and
// each latch-dead price costs what a statically dead child does: none
// of its three tokens is delivered and both its tags count as skipped.
func TestLatchDeadChildNeverDelivered(t *testing.T) {
	const (
		query = `<r>{ for $x in /bib/* return if (exists $x/price) then $x/title else () }</r>`
		doc   = `<bib><book><title>T</title><price>1</price><price>2</price><price>3</price></book></bib>`
		dead  = 2
	)
	plan, err := core.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Automaton == nil {
		t.Fatal("no skip automaton")
	}
	in := core.Input{Format: core.FormatXML, Data: []byte(doc)}
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
		t.Fatalf("without skipping: %q, %d tags skipped; DOM oracle: %q", noSkipOut.String(), noSkip.TagsSkipped, oracle.String())
	}

	backings := map[string]func() *xmltok.Tokenizer{
		"bytes":           func() *xmltok.Tokenizer { return xmltok.NewTokenizerBytes([]byte(doc)) },
		"default reader":  func() *xmltok.Tokenizer { return xmltok.NewTokenizer(strings.NewReader(doc)) },
		"one-byte reader": func() *xmltok.Tokenizer { return xmltok.NewTokenizer(iotest.OneByteReader(strings.NewReader(doc))) },
	}
	for size := 16; size < 64; size++ {
		backings[fmt.Sprintf("reader window %d", size)] = func() *xmltok.Tokenizer {
			return xmltok.NewTokenizerWindow(strings.NewReader(doc), size)
		}
	}
	for name, open := range backings {
		src := &startCounter{Source: open(), name: "price"}
		var out bytes.Buffer
		e := engine.New(plan, src, xmltok.NewSerializer(&out), engine.Config{})
		res, err := e.Run()
		e.Release()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.String() != oracle.String() {
			t.Fatalf("%s: output %q, DOM oracle %q", name, out.String(), oracle.String())
		}
		if src.n != 1 {
			t.Errorf("%s: %d price start tags delivered, want 1", name, src.n)
		}
		if want := noSkip.TokensProcessed - 3*dead; res.TokensProcessed != want {
			t.Errorf("%s: %d tokens, want %d", name, res.TokensProcessed, want)
		}
		if want := noSkip.TagsSkipped + 2*dead; res.TagsSkipped != want {
			t.Errorf("%s: %d tags skipped, want %d", name, res.TagsSkipped, want)
		}
	}
}
