package xmltok

import (
	"bytes"
	"context"
	"fmt"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// tooDeep is the message of the nesting-depth ceiling's SyntaxError.
const tooDeep = "elements nested deeper than %d"

// rawScanner is the one byte-level XML scan, embedded by the Tokenizer
// (which adds token construction on top) and the Splitter (which adds
// partition-path matching and chunk assembly). It understands just
// enough XML to advance correctly — tag bodies with attribute quoting,
// comment / CDATA / PI / declaration terminators, element names and
// their nesting — but materializes no tokens, resolves no entities,
// interns no names and decodes no text. All advancing is
// window-oriented over the block cursor: structural bytes are found
// with vectorized bytes.IndexByte scans (DESIGN.md §6, §7, §12).
// Whoever wants the bytes a scan covered brackets it with the cursor's
// Mark and Take; nothing here copies input on a caller's behalf.
//
// Beside the scan it holds the attribute grammar (attrList) and its
// state, so that the tags either client reads itself are read by one
// set of rules.
//
// The scan deliberately accepts a superset of the Tokenizer's dialect
// (attribute internals and entity references are not validated); users
// rely on one-sided parity only: the raw scan never rejects input the
// Tokenizer accepts, and on accepted input both advance over exactly
// the same bytes. FuzzSplitter and FuzzSkipSubtree pin this.
type rawScanner struct {
	cur cursor.Cursor

	// ctx, when non-nil, is polled at every token pull and chunk scan
	// and once per cursor block inside skipElement. ctxDone caches
	// ctx.Done() so the check is a lock-free channel poll rather than a
	// mutex-guarded ctx.Err() call.
	ctx     context.Context
	ctxDone <-chan struct{}

	// tag is scratch for tag bodies spanning window boundaries; nameBuf
	// and nameLen are skipElement's and seekElement's open-element
	// stack, names stored back to back (no allocations, no interning);
	// kept is a seek's stack of the open tags' bytes past their names
	// (keep), and restBuf holds them on the reader backing. All keep
	// their growth so repeated scans amortize, up to cursor.MaxScratch
	// across a pooled Tokenizer's Release.
	tag     []byte
	nameBuf []byte
	nameLen []int
	kept    []keptTag
	restBuf []byte
	// soughtAt is the input offset of the '<' of the start tag the last
	// seek stopped at.
	soughtAt int64

	// names interns element and attribute names so that repeated tags in
	// large documents share one string allocation, and outlives the
	// input across pooled reuses (cursor.Names' ownership rule).
	names cursor.Names

	// textBuf is scratch for decoded text and attribute values.
	textBuf []byte

	// attrChunk is the block attribute lists are carved from: each start
	// tag's list is a capacity-clipped subslice, so a document's tags
	// share a few allocations instead of making one each. A token owns
	// its list for good — the part of a chunk handed out is left to its
	// holders, never rewritten — and Release keeps only the rest, cleared,
	// for the next run to carve from. attrSize is the capacity of the last
	// fresh chunk, which the next one doubles: it outlives Release, so a
	// pooled tokenizer running one short chunk document after another
	// does not restart at the smallest size each time.
	attrChunk []Attr
	attrSize  int

	// tags counts the element tokens skipElement passed over: start and
	// end tags, self-closing tags counting as two.
	tags int64
}

// keptTag is an entry of a seek's rest stack: the bytes of a start tag
// from just past its name through its '>', where the tag's '<' is at
// input offset at — the input itself on the fixed backing, a copy in
// restBuf ending at end on the reader backing.
type keptTag struct {
	rest []byte
	at   int64
	end  int
}

// SetContext attaches a cancellation context: Tokenizer.Next and
// Splitter.Next fail with ctx.Err() at the first call after
// cancellation, and a skip in progress within one cursor block.
func (rs *rawScanner) SetContext(ctx context.Context) {
	rs.ctx, rs.ctxDone = ctx, nil
	if ctx != nil {
		rs.ctxDone = ctx.Done()
	}
}

// poll returns the context's error once it is cancelled.
func (rs *rawScanner) poll() error {
	if rs.ctxDone != nil {
		select {
		case <-rs.ctxDone:
			return rs.ctx.Err()
		default:
		}
	}
	return nil
}

// tagKind says what markup consumed.
type tagKind uint8

const (
	noTag    tagKind = iota // a PI, comment, CDATA section or declaration
	openTag                 // <name ...>
	emptyTag                // <name .../>
	closeTag                // </name>
)

// skipElement consumes the rest of an element whose start tag <name ...>
// has just been consumed, through its matching end tag, landing exactly
// where full tokenization would land after that element's EndElement.
// It and its variant for a seek, seekElement, are the only loops that
// walk nested tags without building tokens: Tokenizer.SkipSubtree
// discards what it covers, the Splitter skips off-path subtrees with it
// and keeps (Mark/Take) the ones that are records. Tag imbalance and
// truncated input are reported as the Tokenizer would report them; the
// context is polled once per cursor block, so cancellation latency does
// not depend on the backing.
//
// The loop takes one block snapshot and parses plain start/end tags
// lying entirely inside it — the overwhelming majority in dense markup
// — with direct index arithmetic over one []byte, no cursor
// round-trips, which is what carries a raw skip past 1 GB/s. Anything
// irregular (PIs, comments, CDATA, a quoted '>', a tag straddling the
// block edge, a malformed name) syncs the cursor and goes through
// markup, the general per-construct path, so both shapes produce
// identical errors at identical offsets.
//
// depth is the nesting depth of the element being skipped (1 for the
// document element); an element inside it that would sit deeper than
// event.MaxDepth is an error, as it is for the Tokenizer.
func (rs *rawScanner) skipElement(name []byte, depth int) error {
	// The name stack and the tag count live in locals so the hot loop
	// keeps them in registers; leave writes them back at every exit.
	nb := append(rs.nameBuf[:0], name...)
	nl := append(rs.nameLen[:0], len(name))
	tags := rs.tags
	room := event.MaxDepth - depth + 1 // the most names nl may hold
	for {
		if err := rs.poll(); err != nil {
			return rs.leave(nb, nl, tags, err)
		}
		if err := rs.cur.Fill(); err != nil {
			// EOF mid-text (or a read error, which errf reports as
			// itself) while an element is still open.
			return rs.leave(nb, nl, tags, rs.errf("unexpected end of input inside <%s>", nb[len(nb)-nl[len(nl)-1]:]))
		}
		w := rs.cur.Block()
		// Invariant: the cursor stands at w[0]; pos is the scan point
		// inside w. The happy path touches no cursor state at all — the
		// cursor is synced (Advance) only on the exits: general path,
		// error, done, block exhausted.
		pos := 0
		for pos < len(w) {
			if w[pos] != '<' {
				// Character data is consumed wholesale by one vectorized
				// scan, never byte at a time.
				i := bytes.IndexByte(w[pos:], '<')
				if i < 0 {
					pos = len(w)
					break // text continues past the block
				}
				pos += i
			}
			kind, nameAt := openTag, pos+1
			if nameAt < len(w) && w[nameAt] == '/' {
				kind, nameAt = closeTag, nameAt+1
				// Fast accept: in well-formed input the end tag is
				// exactly "</" + the innermost open name + ">", so one
				// bounded memcmp against the expected name settles it —
				// no byte classification, no terminator search. Any
				// disagreement (extra whitespace, mismatch, block edge)
				// falls through to the careful parse below.
				ln := nl[len(nl)-1]
				if e := nameAt + ln; e < len(w) && w[e] == '>' &&
					string(nb[len(nb)-ln:]) == string(w[nameAt:e]) {
					tags++
					nb, nl = nb[:len(nb)-ln], nl[:len(nl)-1]
					pos = e + 1
					if len(nl) == 0 {
						rs.cur.Advance(pos)
						return rs.leave(nb, nl, tags, nil)
					}
					continue
				}
			}
			n := scanName(w[nameAt:])
			tagName := w[nameAt : nameAt+n]
			end := nameAt + n // terminator candidate, then one past the tag
			inBlock := n > 0 && end < len(w)
			if inBlock {
				switch c := w[end]; {
				case c == '>':
					end++
				case isWSByte(c):
					// Attributes (or trailing junk): the tag runs to the
					// first '>' not inside an attribute value. An open
					// quote at that '>' means the real terminator lies
					// further on — rare enough to leave to markup.
					gt := bytes.IndexByte(w[end:], '>')
					if gt < 0 || scanQuotes(0, w[end:end+gt]) != 0 {
						inBlock = false
						break
					}
					rest := w[end : end+gt]
					end += gt + 1
					if kind == closeTag && !allWhitespace(rest) {
						rs.cur.Advance(end)
						return rs.leave(nb, nl, tags, rs.errf("malformed end tag </%s", tagName))
					}
					if kind == openTag && rest[gt-1] == '/' {
						kind = emptyTag
					}
				case c == '/' && kind == openTag && end+1 < len(w) && w[end+1] == '>':
					kind = emptyTag
					end += 2
				default:
					inBlock = false
				}
			}
			if !inBlock {
				// Irregular construct: hand the cursor to the general
				// path with the '<' consumed. The block is given up, so
				// the next tag starts from a fresh poll and snapshot.
				rs.cur.Advance(pos + 1)
				var err error
				if kind, tagName, _, err = rs.markup(); err != nil {
					return rs.leave(nb, nl, tags, err)
				}
				w, end = nil, 0
				if kind == noTag {
					pos = end
					continue // it opens nothing, so it sits at no depth
				}
			}
			// Errors and the final end tag are reported with the cursor
			// just past the tag's '>', where markup leaves it.
			if kind != closeTag && len(nl) >= room {
				rs.cur.Advance(end)
				return rs.leave(nb, nl, tags, rs.errf(tooDeep, event.MaxDepth))
			}
			switch kind {
			case openTag:
				tags++
				nb = append(nb, tagName...)
				nl = append(nl, len(tagName))
			case emptyTag:
				tags += 2 // StartElement + synthesized EndElement
			case closeTag:
				tags++
				ln := nl[len(nl)-1]
				if top := nb[len(nb)-ln:]; string(top) != string(tagName) {
					rs.cur.Advance(end)
					return rs.leave(nb, nl, tags, rs.errf("mismatched </%s>, expected </%s>", tagName, top))
				}
				nb, nl = nb[:len(nb)-ln], nl[:len(nl)-1]
				if len(nl) == 0 {
					rs.cur.Advance(end)
					return rs.leave(nb, nl, tags, nil)
				}
			}
			pos = end
		}
		rs.cur.Advance(pos) // consume what the block pass covered
	}
}

// leave hands skipElement's and seekElement's locals back to the
// scanner.
func (rs *rawScanner) leave(nb []byte, nl []int, tags int64, err error) error {
	rs.nameBuf, rs.nameLen, rs.tags = nb, nl, tags
	return err
}

// seekElement is skipElement's variant for a seek (DESIGN.md §7,
// "Seeking below descendant steps"): it walks the element whose start
// tag <name ...> has just been consumed as skipElement does, but stops
// at the first start tag below it named in sought, consumed, and
// returns that tag's kind, openTag or emptyTag. Then the element, the
// open elements between it and that tag (the chain) and the tag itself
// are on the name stack, the bytes past the names of all but the element
// on the rest stack (keep), and soughtAt is the offset of the tag's '<'. A
// seek that meets no such tag ends where skipElement ends and returns
// noTag. It stops at the same tag on every backing and window size,
// and a sought tag that would sit deeper than event.MaxDepth is the
// depth error, not a stop. Keeping its own loop leaves skipElement's,
// which every plain skip and the Splitter run, without a test per tag.
func (rs *rawScanner) seekElement(name []byte, depth int, sought []string) (tagKind, error) {
	nb := append(rs.nameBuf[:0], name...)
	nl := append(rs.nameLen[:0], len(name))
	rs.kept = append(rs.kept[:0], keptTag{}) // the element's own tag is not kept
	tags := rs.tags
	room := event.MaxDepth - depth + 1 // the most names nl may hold
	for {
		if err := rs.poll(); err != nil {
			return noTag, rs.leave(nb, nl, tags, err)
		}
		if err := rs.cur.Fill(); err != nil {
			return noTag, rs.leave(nb, nl, tags, rs.errf("unexpected end of input inside <%s>", nb[len(nb)-nl[len(nl)-1]:]))
		}
		w := rs.cur.Block()
		pos := 0
		for pos < len(w) {
			if w[pos] != '<' {
				i := bytes.IndexByte(w[pos:], '<')
				if i < 0 {
					pos = len(w)
					break
				}
				pos += i
			}
			kind, nameAt := openTag, pos+1
			if nameAt < len(w) && w[nameAt] == '/' {
				kind, nameAt = closeTag, nameAt+1
				ln := nl[len(nl)-1]
				if e := nameAt + ln; e < len(w) && w[e] == '>' &&
					string(nb[len(nb)-ln:]) == string(w[nameAt:e]) {
					tags++
					nb, nl = nb[:len(nb)-ln], nl[:len(nl)-1]
					pos = e + 1
					if len(nl) == 0 {
						rs.cur.Advance(pos)
						return noTag, rs.leave(nb, nl, tags, nil)
					}
					continue
				}
			}
			n := scanName(w[nameAt:])
			tagName := w[nameAt : nameAt+n]
			end := nameAt + n
			inBlock := n > 0 && end < len(w)
			if inBlock {
				switch c := w[end]; {
				case c == '>':
					end++
				case isWSByte(c):
					gt := bytes.IndexByte(w[end:], '>')
					if gt < 0 || scanQuotes(0, w[end:end+gt]) != 0 {
						inBlock = false
						break
					}
					rest := w[end : end+gt]
					end += gt + 1
					if kind == closeTag && !allWhitespace(rest) {
						rs.cur.Advance(end)
						return noTag, rs.leave(nb, nl, tags, rs.errf("malformed end tag </%s", tagName))
					}
					if kind == openTag && rest[gt-1] == '/' {
						kind = emptyTag
					}
				case c == '/' && kind == openTag && end+1 < len(w) && w[end+1] == '>':
					kind = emptyTag
					end += 2
				default:
					inBlock = false
				}
			}
			// rest is what follows a start tag's name through its '>',
			// and at the offset of its '<'.
			var rest []byte
			at := rs.cur.Offset() + int64(pos)
			if inBlock {
				rest = w[nameAt+n : end]
			} else {
				rs.cur.Advance(pos + 1)
				var body []byte
				var err error
				if kind, tagName, body, err = rs.markup(); err != nil {
					return noTag, rs.leave(nb, nl, tags, err)
				}
				w, end = nil, 0
				if kind == noTag {
					pos = end
					continue
				}
				rest = body[len(tagName):]
			}
			if kind != closeTag && len(nl) >= room {
				rs.cur.Advance(end)
				return noTag, rs.leave(nb, nl, tags, rs.errf(tooDeep, event.MaxDepth))
			}
			if kind != closeTag && rs.keep(len(nl), tagName, rest, sought, at) {
				rs.cur.Advance(end)
				return kind, rs.leave(append(nb, tagName...), append(nl, len(tagName)), tags, nil)
			}
			switch kind {
			case openTag:
				tags++
				nb = append(nb, tagName...)
				nl = append(nl, len(tagName))
			case emptyTag:
				tags += 2
			case closeTag:
				tags++
				ln := nl[len(nl)-1]
				if top := nb[len(nb)-ln:]; string(top) != string(tagName) {
					rs.cur.Advance(end)
					return noTag, rs.leave(nb, nl, tags, rs.errf("mismatched </%s>, expected </%s>", tagName, top))
				}
				nb, nl = nb[:len(nb)-ln], nl[:len(nl)-1]
				if len(nl) == 0 {
					rs.cur.Advance(end)
					return noTag, rs.leave(nb, nl, tags, nil)
				}
			}
			pos = end
		}
		rs.cur.Advance(pos)
	}
}

// keep is seekElement's step at a start tag whose '<' is at offset at,
// which would be the d-th element on the name stack: it keeps rest,
// what follows the name through the tag's '>', as the d-th entry of the
// rest stack, and reports whether name is sought, noting at in soughtAt
// if so. On the fixed backing the entry is rest itself; on the reader
// backing, whose window the next refill overwrites, a copy that takes
// the place of the popped entries' copies in restBuf.
func (rs *rawScanner) keep(d int, name, rest []byte, sought []string, at int64) bool {
	end := 0
	if !rs.cur.Fixed() {
		from := rs.kept[d-1].end
		rs.restBuf = append(rs.restBuf[:from], rest...)
		rest, end = rs.restBuf[from:], len(rs.restBuf)
	}
	rs.kept = append(rs.kept[:d], keptTag{rest, at, end})
	for _, s := range sought {
		if string(name) == s {
			rs.soughtAt = at
			return true
		}
	}
	return false
}

// markup consumes one markup construct with the cursor standing just
// past its '<' and says what it was. For a tag it returns the element
// name and the body — everything after "<" or "</" through the closing
// '>' — both valid until the next refill.
func (rs *rawScanner) markup() (kind tagKind, name, body []byte, err error) {
	b, err := rs.cur.Byte()
	if err != nil {
		return noTag, nil, nil, rs.errf("unexpected end of input in markup")
	}
	switch b {
	case '?':
		return noTag, nil, nil, rs.through("?>")
	case '!':
		term, err := rs.bangTerminator()
		if err == nil {
			err = rs.through(term)
		}
		return noTag, nil, nil, err
	case '/':
		kind = closeTag
	default:
		rs.cur.Unread()
		kind = openTag
	}
	if body, err = rs.readTagBody(); err != nil {
		return kind, nil, nil, err
	}
	nameSrc := body[:len(body)-1]
	if kind == openTag && len(nameSrc) > 0 && nameSrc[len(nameSrc)-1] == '/' {
		kind, nameSrc = emptyTag, nameSrc[:len(nameSrc)-1]
	}
	n := scanName(nameSrc)
	if n == 0 {
		return kind, nil, nil, rs.errf("expected name")
	}
	if kind == closeTag && !allWhitespace(nameSrc[n:]) {
		return kind, nil, nil, rs.errf("malformed end tag </%s", body[:n])
	}
	return kind, body[:n], body, nil
}

// cdataEnd terminates a CDATA section.
const cdataEnd = "]]>"

// bangTerminator consumes the rest of the opening of a "<!..."
// construct, "<!" itself already consumed — "--" of a comment, "[CDATA["
// of a CDATA section, nothing of a DOCTYPE-style declaration — and
// returns the pattern that ends the construct. Internal subsets with
// nested brackets are not supported (XMark-class documents do not use
// them).
func (rs *rawScanner) bangTerminator() (string, error) {
	b, err := rs.cur.Byte()
	if err != nil {
		return "", rs.errf("unexpected end of input after '<!'")
	}
	switch b {
	case '-':
		if b2, err := rs.cur.Byte(); err != nil || b2 != '-' {
			return "", rs.errf("malformed comment")
		}
		return "-->", nil
	case '[':
		const open = "CDATA["
		for i := 0; i < len(open); i++ {
			if b2, err := rs.cur.Byte(); err != nil || b2 != open[i] {
				return "", rs.errf("malformed CDATA section")
			}
		}
		return cdataEnd, nil
	default:
		rs.cur.Unread()
		return ">", nil
	}
}

// through consumes input through the first occurrence of pat: the one
// terminator search behind comments, PIs, CDATA sections and
// declarations, on both backings. Each window is searched whole; when
// pat is not in it, all but its last len(pat)-1 bytes are consumed —
// they may be a prefix of pat — and the search resumes once more input
// has joined them. Every candidate position is compared against all of
// pat, so repeated-prefix input such as "]]]>" needs no matcher state.
func (rs *rawScanner) through(pat string) error {
	for {
		w := rs.cur.Window()
		if i := indexPat(w, pat); i >= 0 {
			rs.cur.Advance(i + len(pat))
			return nil
		}
		keep := min(len(pat)-1, len(w))
		rs.cur.Advance(len(w) - keep)
		if rest, err := rs.cur.Peek(keep + 1); err != nil {
			rs.cur.Advance(len(rest))
			return rs.errf("unexpected end of input looking for %q", pat)
		}
	}
}

// indexPat returns the index of the first occurrence of pat in w, or
// -1. It is bytes.Index without the string→[]byte conversion (which
// would allocate): vectorized IndexByte jumps between candidate
// positions, with an allocation-free comparison at each.
func indexPat(w []byte, pat string) int {
	for off := 0; ; {
		i := bytes.IndexByte(w[off:], pat[0])
		if i < 0 {
			return -1
		}
		p := off + i
		if p+len(pat) > len(w) {
			return -1
		}
		if string(w[p:p+len(pat)]) == pat {
			return p
		}
		off = p + 1
	}
}

// readTagBody returns the bytes after '<' (already consumed, along with
// any '/' marker or name handled by the caller) through the first '>'
// outside quotes, which is where every reader of this package ends a
// tag (DESIGN.md §8). In the common case — the whole tag inside the
// current window — the returned slice aliases the window (valid until
// the next refill; on the []byte path, for the cursor's whole life);
// tags spanning window boundaries fall back to the rs.tag scratch.
func (rs *rawScanner) readTagBody() ([]byte, error) {
	var quote byte
	first := true
	for {
		if err := rs.cur.Fill(); err != nil {
			return nil, rs.errf("unexpected end of input in tag")
		}
		w := rs.cur.Window()
		start := 0
		for {
			i := bytes.IndexByte(w[start:], '>')
			if i < 0 {
				break
			}
			gt := start + i
			quote = scanQuotes(quote, w[start:gt])
			if quote == 0 {
				rs.cur.Advance(gt + 1)
				if first {
					return w[:gt+1], nil
				}
				rs.tag = append(rs.tag, w[:gt+1]...)
				return rs.tag, nil
			}
			// the '>' was inside an attribute value: keep it, continue
			start = gt + 1
		}
		quote = scanQuotes(quote, w[start:])
		if first {
			rs.tag, first = rs.tag[:0], false
		}
		rs.tag = append(rs.tag, w...)
		rs.cur.Advance(len(w))
	}
}

// scanQuotes advances the attribute-quoting state across b. Short
// bodies (nearly every tag) use a plain loop; long ones amortize the
// vectorized IndexByte.
func scanQuotes(quote byte, b []byte) byte {
	if len(b) <= 64 {
		for _, c := range b {
			switch {
			case quote == 0 && (c == '"' || c == '\''):
				quote = c
			case c == quote:
				quote = 0
			}
		}
		return quote
	}
	for len(b) > 0 {
		if quote == 0 {
			i := bytes.IndexByte(b, '"')
			j := bytes.IndexByte(b, '\'')
			if i < 0 {
				i = j
			} else if j >= 0 && j < i {
				i = j
			}
			if i < 0 {
				return 0
			}
			quote = b[i]
			b = b[i+1:]
		} else {
			i := bytes.IndexByte(b, quote)
			if i < 0 {
				return quote
			}
			quote = 0
			b = b[i+1:]
		}
	}
	return quote
}

// scanName returns the length of the XML name prefix of b (0 if b does
// not start with a name).
func scanName(b []byte) int {
	if len(b) == 0 || !nameStartByte[b[0]] {
		return 0
	}
	i := 1
	for i < len(b) && namePartByte[b[i]] {
		i++
	}
	return i
}

// errf reports a syntax error at the cursor, errAt one at input offset
// off; a pending read error is reported as itself.
func (rs *rawScanner) errf(format string, args ...any) error {
	return rs.errAt(rs.cur.Offset(), format, args...)
}

func (rs *rawScanner) errAt(off int64, format string, args ...any) error {
	if ioErr := rs.cur.IOErr(); ioErr != nil {
		return fmt.Errorf("xmltok: read error at byte %d: %w", rs.cur.Offset(), ioErr)
	}
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}
