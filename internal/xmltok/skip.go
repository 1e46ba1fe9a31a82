package xmltok

import (
	"bytes"

	"gcx/internal/event"
)

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
// TokenCount. SkipStats reports what was fast-forwarded. Next takes the
// same path for a child its skipper finds dead (dropDead) and for one
// whose seek finds nothing (seekChild).
func (t *Tokenizer) SkipSubtree() error {
	if len(t.stack) == 0 {
		return t.errf("SkipSubtree with no open element")
	}
	if n := len(t.queue) - t.head; n > 0 {
		// Next returned the element a seek stopped in: the queued start
		// tags, never to be delivered, are open in the input below it,
		// and close inside its subtree. The seek consumed the last one
		// already.
		t.tags += int64(n)
		t.bytesSkipped += t.cur.Offset() - t.soughtAt
		t.emptyOpen, t.queue, t.head = t.queueEmpty, t.queue[:0], 0
		for ; n > 0; n-- {
			if _, err := t.scanOpen(nil); err != nil {
				return err
			}
			t.subtreesSkipped-- // one subtree per call
		}
	}
	_, err := t.scanOpen(nil)
	return err
}

// scanOpen raw-scans the innermost open element: through its end
// (rawScanner.skipElement), or, with sought not empty, up to its first
// descendant start tag named in sought (seekElement), whose kind it
// returns. A scan that
// runs through the end pops the element and counts one skipped subtree.
func (t *Tokenizer) scanOpen(sought []string) (tagKind, error) {
	t.cur.Expire()
	stop := noTag
	if t.emptyOpen {
		// The open element was self-closing: its subtree is empty and
		// its EndElement is the one Next would synthesize.
		t.tags++ // the undelivered EndElement
		t.emptyOpen = false
	} else {
		startOff := t.cur.Offset()
		var err error
		if name := []byte(t.stack[len(t.stack)-1]); len(sought) == 0 {
			err = t.skipElement(name, len(t.stack))
		} else {
			stop, err = t.seekElement(name, len(t.stack), sought)
		}
		endOff := t.cur.Offset()
		if stop != noTag {
			endOff = t.soughtAt
		}
		t.bytesSkipped += endOff - startOff
		if err != nil {
			t.subtreesSkipped++
			t.err = err
			return noTag, err
		}
	}
	if stop == noTag {
		t.subtreesSkipped++
		t.pop()
	}
	return stop, nil
}

// SetSkipper installs the child test Next consults before it delivers a
// start tag; nil removes it.
func (t *Tokenizer) SetSkipper(s event.Skipper) { t.skipper = s }

// dropDead fast-forwards past the element whose start tag Next has just
// read and the skipper found dead, so that the tag is never delivered:
// its attribute list, attrs, gives its slots back to the chunk, the
// start tag counts as a skipped one, and the rest goes as SkipSubtree
// takes it.
func (t *Tokenizer) dropDead(attrs []Attr) error {
	t.attrChunk = t.attrChunk[:len(t.attrChunk)-len(attrs)]
	t.tags++
	return t.SkipSubtree()
}

// seekChild raw-scans the element whose start tag Next has just read
// and the skipper answered Seek for, up to the first start tag below it
// named in sought (DESIGN.md §7, "Seeking below descendant steps"), and
// reports whether there was one. If not, the element is dropped as a
// dead one is. If so, the element is delivered after all: queueChain
// lines up what follows it.
func (t *Tokenizer) seekChild(attrs []Attr, sought []string) (bool, error) {
	stop, err := t.scanOpen(sought)
	if err != nil {
		return false, err
	}
	if stop == noTag {
		t.attrChunk = t.attrChunk[:len(t.attrChunk)-len(attrs)]
		t.tags++
		return false, nil
	}
	return true, t.queueChain(stop == emptyTag)
}

// queueChain turns what a seek stopped at into queued StartElements, in
// document order: the chain — the open elements between the seeked
// element and the sought tag — and the sought tag last. Each is built
// from the bytes the scan kept, as readStartTag would read it, and its
// name goes on the stack at once. Next delivers the chain unasked: none
// of its names is sought, so the skipper would answer Seek again, with
// the same set. The sought tag it asks about like a start tag just
// read; empty says it was self-closing. The chain's start tags were
// counted as skipped ones by the scan, and are not.
func (t *Tokenizer) queueChain(empty bool) error {
	t.queue, t.head, t.queueEmpty = t.queue[:0], 0, empty
	off := t.nameLen[0]
	for i := 1; i < len(t.nameLen); i++ {
		n := t.nameLen[i]
		name := t.names.Intern(t.nameBuf[off : off+n])
		off += n
		attrs, err := t.tagAttrs(name, t.restBuf[t.restEnd[i-1]:t.restEnd[i]])
		if err != nil {
			t.err = err
			return err
		}
		t.queue = append(t.queue, Token{Kind: StartElement, Name: name, Attrs: attrs})
		t.stack = append(t.stack, name)
	}
	t.tags -= int64(len(t.queue) - 1)
	return nil
}

// tagAttrs reads the attribute list of the start tag of elem from rest,
// the bytes between its name and its '>' (or "/>"), accepting exactly
// what readStartTag accepts. Values are kept (Cursor.Keep): rest is the
// scan's scratch.
func (t *Tokenizer) tagAttrs(elem string, rest []byte) ([]Attr, error) {
	first := len(t.attrChunk)
	for p := 0; ; {
		for p < len(rest) && isWSByte(rest[p]) {
			p++
		}
		if p == len(rest) {
			return t.attrsFrom(first), nil
		}
		n := scanName(rest[p:])
		if n == 0 {
			return nil, t.errf("malformed attribute in <%s>", elem)
		}
		name := t.names.Intern(rest[p : p+n])
		for p += n; p < len(rest) && isWSByte(rest[p]); p++ {
		}
		if p == len(rest) || rest[p] != '=' {
			return nil, t.errf("attribute %s in <%s> missing '='", name, elem)
		}
		for p++; p < len(rest) && isWSByte(rest[p]); p++ {
		}
		if p == len(rest) || (rest[p] != '"' && rest[p] != '\'') {
			return nil, t.errf("attribute %s in <%s> missing quote", name, elem)
		}
		q := bytes.IndexByte(rest[p+1:], rest[p])
		if q < 0 {
			return nil, t.errf("unterminated attribute value for %s", name)
		}
		val, err := t.attrValue(rest[p+1 : p+1+q])
		if err != nil {
			return nil, err
		}
		p += q + 2
		first = t.appendAttr(first, Attr{Name: name, Value: val})
	}
}

// attrValue resolves the entity references of a raw attribute value, as
// readAttrValue does, and keeps the result. A reference never holds a
// quote, so one that readAttrValue would read past the closing quote
// is one both reject.
func (t *Tokenizer) attrValue(raw []byte) (string, error) {
	if bytes.IndexByte(raw, '&') < 0 {
		return t.cur.Keep(raw, false), nil
	}
	t.textBuf = t.textBuf[:0]
	for {
		j := bytes.IndexByte(raw, '&')
		if j < 0 {
			t.textBuf = append(t.textBuf, raw...)
			return t.cur.Keep(t.textBuf, false), nil
		}
		t.textBuf = append(t.textBuf, raw[:j]...)
		raw = raw[j+1:]
		k := bytes.IndexByte(raw, ';')
		if k < 0 {
			return "", t.errf("unterminated entity reference")
		}
		r, err := t.entity(raw[:k])
		if err != nil {
			return "", err
		}
		t.textBuf = append(t.textBuf, r...)
		raw = raw[k+1:]
	}
}

// SkipStats reports the bytes SkipSubtree, dropDead and seekChild
// fast-forwarded past, the element tokens never delivered (start and
// end tags, a self-closing tag counting as two — a lower bound on the
// tokens saved, since text runs are not counted) and the number of
// fast-forwards, empty self-closing subtrees and seeks that found
// nothing included.
func (t *Tokenizer) SkipStats() event.SkipStats {
	return event.SkipStats{
		BytesSkipped:    t.bytesSkipped,
		TagsSkipped:     t.tags,
		SubtreesSkipped: t.subtreesSkipped,
	}
}
