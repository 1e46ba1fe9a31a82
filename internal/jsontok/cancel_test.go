package jsontok

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"gcx/internal/event"
)

// A raw skip must notice cancellation while it runs, on both backings
// and in both loops that can run long: a container (rawSkip) and a
// string scalar (skipScalar). Each value is 32 MiB of escaped quotes —
// the string scan's slowest input, one stop per two bytes — so tens of
// milliseconds of scanning against a cancellation 1 ms in.
func TestSkipCancelledMidScan(t *testing.T) {
	big := bytes.Repeat([]byte(`\"`), 16<<20)
	docs := map[string][]byte{
		"object": append(append([]byte(`{"a":{"k":"`), big...), `"}}`...),
		"string": append(append([]byte(`{"a":"`), big...), `"}`...),
	}
	for shape, doc := range docs {
		backings := map[string]func() *Tokenizer{
			"bytes":  func() *Tokenizer { return NewTokenizerBytes(doc) },
			"reader": func() *Tokenizer { return NewTokenizer(bytes.NewReader(doc)) },
		}
		for backing, open := range backings {
			t.Run(shape+"/"+backing, func(t *testing.T) {
				tz := open()
				defer tz.Release()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				tz.SetContext(ctx)
				for {
					tok, err := tz.Next()
					if err != nil {
						t.Fatal(err)
					}
					if tok.Kind == event.StartElement && tok.Name == "a" {
						break
					}
				}
				time.AfterFunc(time.Millisecond, cancel)
				if err := tz.SkipSubtree(); !errors.Is(err, context.Canceled) {
					t.Fatalf("SkipSubtree = %v after %d of %d bytes, want context.Canceled", err, tz.SkipStats().BytesSkipped, len(doc))
				}
				if n := tz.SkipStats().BytesSkipped; n > int64(len(doc)/2) {
					t.Fatalf("skip ran %d of %d bytes past a cancellation 1 ms in", n, len(doc))
				}
			})
		}
	}
}

// The record scan must notice cancellation too, on both backings: a
// 32 MiB stream of records the filter rejects is dropped inside one
// Next, which polls once per record, and one 32 MiB record, which no
// block holds, is left to the token path, whose raw skip of its dead
// member — escaped quotes, the string scan's slowest input — polls once
// per block.
func TestRecordFilterCancelled(t *testing.T) {
	f := &event.RecordFilter{
		Cond: &event.FilterCond{Op: event.FilterEq, Key: 0, Lit: "x"},
		Keys: []string{"a"},
	}
	for _, c := range []struct {
		shape string
		doc   []byte
		// starts are the StartElements delivered before the cancellation.
		starts []string
	}{
		{"rejected records", bytes.Repeat([]byte(`{"e":[1,2],"a":"1"}`+"\n"), 32<<20/20), []string{event.RootName}},
		{"one large record", append(append([]byte(`{"e":"`), bytes.Repeat([]byte(`\"`), 16<<20)...), `","a":"1"}`...),
			[]string{event.RootName, event.RecordName}},
	} {
		doc := c.doc
		backings := map[string]func() *Tokenizer{
			"bytes":  func() *Tokenizer { return NewTokenizerBytes(doc) },
			"reader": func() *Tokenizer { return NewTokenizer(bytes.NewReader(doc)) },
		}
		for backing, open := range backings {
			t.Run(c.shape+"/"+backing, func(t *testing.T) {
				tz := open()
				defer tz.Release()
				s := &filterSkipper{f: f}
				tz.SetSkipper(s)
				tz.SetFilter(f)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				tz.SetContext(ctx)
				for _, want := range c.starts {
					tok, err := tz.Next()
					if err != nil || tok.Kind != event.StartElement || tok.Name != want {
						t.Fatalf("Next = %+v, %v; want <%s>", tok, err, want)
					}
					s.depth++
				}
				time.AfterFunc(time.Millisecond, cancel)
				start := time.Now()
				if _, err := tz.Next(); !errors.Is(err, context.Canceled) {
					t.Fatalf("Next = %v after %d of %d bytes, want context.Canceled", err, tz.SkipStats().BytesSkipped, len(doc))
				}
				if n := tz.SkipStats().BytesSkipped; n > int64(len(doc)/2) {
					t.Fatalf("the scan ran %d of %d bytes, for %v, past a cancellation 1 ms in", n, len(doc), time.Since(start))
				}
			})
		}
	}
}
