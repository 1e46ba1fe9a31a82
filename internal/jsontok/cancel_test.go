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
