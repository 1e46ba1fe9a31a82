package xmltok

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

// cancelDoc is <a> around 32 MiB of small elements: skipping it takes
// tens of milliseconds, far longer than the tests' cancellation delay.
func cancelDoc() []byte {
	inside := bytes.Repeat([]byte("<x>y</x>"), 4<<20)
	doc := make([]byte, 0, len(inside)+7)
	return append(append(append(doc, "<a>"...), inside...), "</a>"...)
}

// A skip must notice cancellation while it runs, on both backings: the
// slice backing's window is the whole remaining input, so polling once
// per Fill there means not polling at all.
func TestSkipCancelledMidScan(t *testing.T) {
	doc := cancelDoc()
	backings := map[string]func() *Tokenizer{
		"bytes":  func() *Tokenizer { return NewTokenizerBytes(doc) },
		"reader": func() *Tokenizer { return NewTokenizer(bytes.NewReader(doc)) },
	}
	for name, open := range backings {
		t.Run(name, func(t *testing.T) {
			tz := open()
			defer tz.Release()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tz.SetContext(ctx)
			if _, err := tz.Next(); err != nil {
				t.Fatal(err)
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

// The splitter takes a record as one skip, so a document-sized record
// (XMark Q6 partitions at /site/regions) must be as cancellable.
func TestSplitterCancelledInsideRecord(t *testing.T) {
	doc := cancelDoc()
	path := []SplitStep{{Name: "a"}}
	backings := map[string]func() *Splitter{
		"bytes":  func() *Splitter { return NewSplitterBytes(doc, path) },
		"reader": func() *Splitter { return NewSplitter(bytes.NewReader(doc), path) },
	}
	for name, open := range backings {
		t.Run(name, func(t *testing.T) {
			sp := open()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sp.SetContext(ctx)
			time.AfterFunc(time.Millisecond, cancel)
			var err error
			for err == nil {
				_, err = sp.Next()
			}
			if err == io.EOF || !errors.Is(err, context.Canceled) {
				t.Fatalf("Next = %v at byte %d of %d, want context.Canceled", err, sp.cur.Offset(), len(doc))
			}
			if off := sp.cur.Offset(); off > int64(len(doc)/2) {
				t.Fatalf("split ran %d of %d bytes past a cancellation 1 ms in", off, len(doc))
			}
		})
	}
}
