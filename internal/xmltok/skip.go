package xmltok

import "gcx/internal/event"

// SkipSubtree fast-forwards the input past the remainder of the
// innermost open element — the StartElement most recently returned by
// Next — landing exactly where full tokenization would land after
// consuming that element's matching EndElement. The subtree's bytes
// are raw-scanned (rawScanner.skipElement, DESIGN.md §7): no
// Token structs are built, no text is decoded, no entity references
// are resolved, no names are interned and no whitespace handling runs;
// character data is consumed by whole-window vectorized scans for '<'.
// Element nesting inside the skipped region is still tracked, so tag
// imbalance and truncated input are reported as SyntaxErrors just as
// full tokenization would report them; attribute internals and entity
// references inside the region are NOT validated (the raw scan accepts
// a superset of the tokenizer dialect — FuzzSkipSubtree pins the
// one-sided parity).
//
// The caller contract is strict: SkipSubtree must be invoked
// immediately after Next returned a StartElement. The skipped element's
// EndElement is consumed silently — it is
// never delivered — and skipped content does not count into
// TokenCount. SkipStats reports what was fast-forwarded.
func (t *Tokenizer) SkipSubtree() error {
	if len(t.stack) == 0 {
		return t.errf("SkipSubtree with no open element")
	}
	t.subtreesSkipped++
	t.cur.Expire()
	if t.emptyOpen {
		// The open element was self-closing: its subtree is empty and
		// its EndElement is the one Next would synthesize.
		t.tags++ // the undelivered EndElement
		t.emptyOpen = false
	} else {
		startOff := t.cur.Offset()
		err := t.skipElement([]byte(t.stack[len(t.stack)-1]), len(t.stack))
		t.bytesSkipped += t.cur.Offset() - startOff
		if err != nil {
			t.err = err
			return err
		}
	}
	t.pop()
	return nil
}

// SkipStats reports the bytes SkipSubtree fast-forwarded past, the
// element tokens inside them (start and end tags, a self-closing tag
// counting as two — a lower bound on the tokens saved, since text runs
// are not counted) and the number of SkipSubtree calls, empty
// self-closing subtrees included.
func (t *Tokenizer) SkipStats() event.SkipStats {
	return event.SkipStats{
		BytesSkipped:    t.bytesSkipped,
		TagsSkipped:     t.tags,
		SubtreesSkipped: t.subtreesSkipped,
	}
}
