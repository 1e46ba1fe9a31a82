// Package jsontok is the JSON/NDJSON front end of the engine: a
// streaming tokenizer that presents JSON values as the format-neutral
// tree events of internal/event (Tokenizer implements event.Source), a
// serializer that renders result events back as JSON lines (Serializer
// implements event.Sink), and an NDJSON line splitter for sharded
// execution.
//
// The tree mapping (DESIGN.md §8) makes the existing XPath subset,
// projection automaton and subtree skipping apply unchanged:
//
//   - the stream is one virtual element named event.RootName ("root");
//   - every top-level JSON value — one line of NDJSON — is an element
//     named event.RecordName ("record");
//   - an object member k:v becomes an element named k containing the
//     mapping of v;
//   - an array becomes repeated siblings: each item is mapped under the
//     array's own element name (the object key it was the value of, or
//     "record" at the top level), so {"a":[1,2]} ≡ <a>1</a><a>2</a> and
//     nested arrays flatten;
//   - scalars become text content: strings unescaped, numbers and
//     true/false verbatim, null an empty element.
//
// Like the XML tokenizer, the Tokenizer works strictly one event at a
// time, interns object keys so repeated field names share one string,
// and supports byte-level SkipSubtree: when the projection automaton
// proves a value irrelevant, its bytes are raw-scanned to the matching
// close brace without string decoding, number parsing or event
// construction. Scalars are parsed lazily — the StartElement is
// delivered before the scalar's bytes are consumed — so skipping one
// raw-scans its bytes too instead of decoding and discarding them.
//
// Input flows through the shared block cursor (internal/cursor,
// DESIGN.md §12): io.Reader and []byte inputs run the same window
// scanning code, and on the []byte path escape-free strings and number
// literals borrow subslices of the input instead of allocating. On the
// reader path a token's Text is a view that the next Next or SkipSubtree
// invalidates (Volatile, DESIGN.md §12 "Token lifetime on the reader
// backing"); names may be kept on both.
package jsontok

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// SyntaxError describes malformed JSON input with its byte offset.
type SyntaxError struct {
	Offset int64
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsontok: syntax error at byte %d: %s", e.Offset, e.Msg)
}

// tooDeep is the message of the nesting-depth ceiling's SyntaxError.
const tooDeep = "containers nested deeper than %d"

// Byte classes of the package-level table every scan consults: one load
// says whether a byte is whitespace, structure, the start of a scalar
// or part of a number literal.
const (
	cSpace  uint8 = 1 << iota // insignificant whitespace
	cQuote                    // "
	cOpen                     // { [
	cClose                    // } ]
	cColon                    // :
	cScalar                   // first byte of a number or keyword
	cNumber                   // may appear in a number literal
)

var class = func() (c [256]uint8) {
	for _, b := range " \t\r\n" {
		c[b] = cSpace
	}
	c['"'], c[':'] = cQuote, cColon
	c['{'], c['['], c['}'], c[']'] = cOpen, cOpen, cClose, cClose
	for _, b := range "0123456789-+.eE" {
		c[b] = cNumber
	}
	for _, b := range "0123456789-tfn" {
		c[b] |= cScalar
	}
	return c
}()

// unescaped maps the byte after a backslash to the byte it stands for
// (0: not a one-byte escape); hexVal maps a hex digit to its value + 1.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

var hexVal = func() (h [256]uint8) {
	for i, b := range "0123456789abcdef" {
		h[b] = uint8(i) + 1
	}
	for i, b := range "ABCDEF" {
		h[b] = uint8(i) + 11
	}
	return h
}()

// stringEnd is the one loop that decides where a string ends. b is
// input from inside a string and esc says whether b[0] is escaped by a
// backslash that ended the previous block. It returns the index of the
// closing quote, or -1 and whether the byte after b is escaped. Quotes
// are found a block at a time (bytes.IndexByte); a quote closes the
// string unless an odd run of backslashes stands before it. Escaped
// quotes come in clusters (JSON inside a string), where a search per
// quote costs more than it skips: after one, the next escapeWalk bytes
// are walked one at a time before searching by block again.
func stringEnd(b []byte, esc bool) (int, bool) {
	p := 0 // no byte before p escapes one at or after it
	if esc {
		p = 1
	}
	for p < len(b) {
		q := bytes.IndexByte(b[p:], '"')
		end := p + q
		if q < 0 {
			end = len(b)
		}
		run := end
		for run > p && b[run-1] == '\\' {
			run--
		}
		odd := (end-run)&1 == 1
		if q < 0 {
			return -1, odd
		}
		if !odd {
			return end, false
		}
		p = end + 1
		for walk := min(len(b), p+escapeWalk); p < walk; p++ {
			if b[p] == '"' {
				return p, false
			}
			if b[p] == '\\' {
				p++
			}
		}
	}
	return -1, p > len(b)
}

const escapeWalk = 32

// plainLen returns the length of b's prefix that needs no decoding: no
// backslash and no control byte.
func plainLen(b []byte) int {
	for i, c := range b {
		if c < 0x20 || c == '\\' {
			return i
		}
	}
	return len(b)
}

func spaceEnd(w []byte, p int) int {
	for p < len(w) && class[w[p]]&cSpace != 0 {
		p++
	}
	return p
}

// frame kinds of the container stack.
const (
	frameStream uint8 = iota // the virtual root: a sequence of records
	frameObject              // inside { }: the element named frame.name is open
	frameArray               // inside [ ]: items repeat under frame.name, no element open
)

// Where a frame's parse position stands between its members.
const (
	atStart    uint8 = iota // just opened: a member or the closing bracket
	afterValue              // ',' or the closing bracket
	afterComma              // a member; a closing bracket here is a trailing comma
	afterKey                // the value of the member named Tokenizer.name
)

type frame struct {
	kind  uint8
	state uint8
	name  string // of the elements the frame's values map to
}

// frameText holds what the object and array cases of the careful path
// differ in.
var frameText = [...]struct {
	closer     byte
	where, sep string
}{
	frameObject: {'}', "inside object", "expected ',' or '}' in object, got %q"},
	frameArray:  {']', "inside array", "expected ',' or ']' in array, got %q"},
}

// Tokenizer reads a JSON or NDJSON byte stream and produces events one
// at a time. The zero value is not usable; construct with NewTokenizer
// or NewTokenizerBytes.
type Tokenizer struct {
	cur cursor.Cursor

	stack []frame

	// scalarPending: a scalar value's StartElement has been delivered
	// but its bytes are still unread; the next Next parses them, and a
	// SkipSubtree instead raw-scans them without decoding. endPending:
	// the scalar's Text has been delivered and the next Next synthesizes
	// its EndElement. name is that element's, and before that the key of
	// a member whose value has not started yet (afterKey).
	scalarPending bool
	endPending    bool
	name          string

	// names interns object keys (→ element names); repeated fields in
	// large streams share one string allocation, and it outlives the
	// input across pooled reuses (cursor.Names' ownership rule).
	names cursor.Names

	ctx     context.Context
	ctxDone <-chan struct{}

	count    int64 // events delivered; 0 until the root's StartElement
	done     bool  // the root's EndElement is out, or the root was skipped
	released bool
	// err is the first error Next or SkipSubtree returned. It is final:
	// both return it again rather than parse on from where it struck.
	err error

	textBuf []byte // scratch of unescape

	skipped event.SkipStats
}

// tokenizerPool recycles Tokenizers — each carries a 64 KiB cursor
// window, a key-interning map and a text scratch buffer.
var tokenizerPool = sync.Pool{New: func() any { return new(Tokenizer) }}

// NewTokenizer returns a Tokenizer reading from r. Tokenizers come from
// an internal pool; callers that finish with one may hand its buffers
// back via Release.
func NewTokenizer(r io.Reader) *Tokenizer {
	t := tokenizerPool.Get().(*Tokenizer)
	t.cur.ResetReader(r, cursor.DefaultSize)
	t.reset()
	return t
}

// NewTokenizerBytes returns a Tokenizer scanning data in place: windows
// are served directly from the slice, and escape-free strings / number
// literals borrow subslices of it. The caller must not mutate data
// until it is done with the tokenizer and every event it produced.
func NewTokenizerBytes(data []byte) *Tokenizer {
	t := tokenizerPool.Get().(*Tokenizer)
	t.cur.ResetBytes(data)
	t.reset()
	return t
}

// reset zeroes everything but the cursor, which the constructor has
// armed, and the buffers a pooled tokenizer carries over.
func (t *Tokenizer) reset() {
	t.names.Reset()
	*t = Tokenizer{cur: t.cur, names: t.names, stack: t.stack[:0], textBuf: t.textBuf[:0]}
}

// SetContext attaches a cancellation context. Next fails with ctx.Err()
// at the first event pull after cancellation.
func (t *Tokenizer) SetContext(ctx context.Context) {
	t.ctx = ctx
	t.ctxDone = nil
	if ctx != nil {
		t.ctxDone = ctx.Done()
	}
}

// Release returns the tokenizer's buffers to the pool. The tokenizer
// must not be used afterwards; counters read before Release stay valid.
// Release is idempotent.
func (t *Tokenizer) Release() {
	if t.released {
		return
	}
	t.released = true
	t.cur.ResetBytes(nil) // drop the reader / input-slice reference
	t.ctx, t.ctxDone = nil, nil
	if cap(t.textBuf) > cursor.MaxScratch {
		t.textBuf = nil
	}
	tokenizerPool.Put(t)
}

// Volatile reports whether a token's Text dies at the next Next or
// SkipSubtree: true on the reader backing, false over a []byte.
func (t *Tokenizer) Volatile() bool { return !t.cur.Fixed() }

// TokenCount reports how many events have been delivered so far.
func (t *Tokenizer) TokenCount() int64 { return t.count }

// SkipStats reports the bytes SkipSubtree fast-forwarded past, a lower
// bound on the elements inside them (object members, counted by their
// key separators) and the number of fast-forwards taken.
func (t *Tokenizer) SkipStats() event.SkipStats { return t.skipped }

// poll reports the attached context's error once it is cancelled.
func (t *Tokenizer) poll() error {
	if t.ctxDone != nil {
		select {
		case <-t.ctxDone:
			return t.ctx.Err()
		default:
		}
	}
	return nil
}

func (t *Tokenizer) fail(err error) (event.Token, error) {
	t.err = err
	return event.Token{}, err
}

// Next returns the next event of the stream, io.EOF at the end. Once
// Next or SkipSubtree has failed, both keep returning that error.
//
// Every event is built here, from one window snapshot (DESIGN.md §12,
// "The JSON fast path"): what stands between two values of well-formed
// input — whitespace, the comma, an escape-free key and its colon, or
// the closing bracket — is recognised by index arithmetic (memberPrefix)
// and consumed with the value's first byte by a single Advance. When
// that does not fit the window or the grammar, step moves the cursor
// past one construct the careful way or reports what is wrong with it —
// the only place a SyntaxError is produced — and the accept is tried
// again: it takes a prefix whole or leaves the cursor untouched, so
// tokens, errors and offsets are the same on every backing and window.
func (t *Tokenizer) Next() (event.Token, error) {
	if t.err != nil {
		return event.Token{}, t.err
	}
	if err := t.poll(); err != nil {
		return t.fail(err)
	}
	t.cur.Expire()
	if t.endPending {
		t.endPending = false
		t.count++
		return event.Token{Kind: event.EndElement, Name: t.name}, nil
	}
	if t.scalarPending {
		t.scalarPending = false
		text, err := t.readScalar()
		if err != nil {
			return t.fail(err)
		}
		t.count++
		if text == "" { // null and "" map to an empty element
			return event.Token{Kind: event.EndElement, Name: t.name}, nil
		}
		t.endPending = true
		return event.Token{Kind: event.Text, Text: text}, nil
	}
	if t.count == 0 {
		t.stack = append(t.stack, frame{kind: frameStream, name: event.RecordName})
		t.count++
		return event.Token{Kind: event.StartElement, Name: event.RootName}, nil
	}
	for len(t.stack) > 0 {
		top := &t.stack[len(t.stack)-1]
		w := t.cur.Window()
		if p, key, closes := memberPrefix(w, top); closes {
			t.cur.Advance(p + 1)
			kind, name := top.kind, top.name
			t.stack = t.stack[:len(t.stack)-1]
			if kind == frameArray {
				continue // arrays emit no event of their own
			}
			t.count++
			return event.Token{Kind: event.EndElement, Name: name}, nil
		} else if p >= 0 && t.valueStarts(w[p]) {
			name := top.name
			if top.state == afterKey {
				name = t.name
			} else if top.kind == frameObject {
				name = t.names.Intern(key)
			}
			top.state = afterValue
			switch w[p] {
			case '[':
				t.cur.Advance(p + 1)
				t.stack = append(t.stack, frame{kind: frameArray, name: name})
				continue
			case '{':
				t.cur.Advance(p + 1)
				t.stack = append(t.stack, frame{kind: frameObject, name: name})
			default:
				// A scalar is only classified by its first byte: its bytes
				// stay in the cursor so that a SkipSubtree right after the
				// StartElement can raw-scan them, and a malformed one is
				// reported by the Next after.
				t.cur.Advance(p)
				t.scalarPending, t.name = true, name
			}
			t.count++
			return event.Token{Kind: event.StartElement, Name: name}, nil
		}
		if err := t.step(); err != nil {
			return t.fail(err)
		}
	}
	if t.done {
		return t.fail(io.EOF)
	}
	t.done = true
	t.count++
	return event.Token{Kind: event.EndElement, Name: event.RootName}, nil
}

// valueStarts reports whether a value may start with b here: a scalar's
// first byte, or a bracket while the nesting ceiling allows one more
// container (the stream frame at the bottom of the stack is none).
func (t *Tokenizer) valueStarts(b byte) bool {
	c := class[b]
	return c&(cQuote|cScalar) != 0 || (c&cOpen != 0 && len(t.stack) <= event.MaxDepth)
}

// memberPrefix is the in-window accept for what stands between the
// parse position and the next value of the frame f: whitespace, the
// comma if one is due, and in an object an escape-free key and its
// colon. It returns the index of the value's first byte and the key —
// or, with closes set, the index of the bracket that closes f. p is -1,
// and nothing is decided, when the window ends first or holds anything
// else: a key with an escape or a control byte, a missing or trailing
// comma, any other malformation.
func memberPrefix(w []byte, f *frame) (p int, key []byte, closes bool) {
	p = spaceEnd(w, 0)
	if f.kind != frameStream && f.state != afterKey && p < len(w) {
		if w[p] == frameText[f.kind].closer && f.state != afterComma {
			return p, nil, true
		}
		if f.state == afterValue {
			if w[p] != ',' {
				return -1, nil, false
			}
			p = spaceEnd(w, p+1)
		}
		if f.kind == frameObject {
			n := -1
			if p < len(w) && w[p] == '"' {
				n, _ = stringEnd(w[p+1:], false)
			}
			if n < 0 || plainLen(w[p+1:p+1+n]) != n {
				return -1, nil, false
			}
			key = w[p+1 : p+1+n]
			if p = spaceEnd(w, p+n+2); p == len(w) || w[p] != ':' {
				return -1, nil, false
			}
			p = spaceEnd(w, p+1)
		}
	}
	if p == len(w) {
		return -1, nil, false
	}
	return p, key, false
}

// step is the careful path: through the cursor, a refill at a time, it
// consumes the one construct the accept stopped at — whitespace, a
// comma, a key and its colon, the end of the stream — or reports what
// is wrong there. What the accept takes once it is whole in the window,
// a closing bracket or the first byte of a value, is left to it.
func (t *Tokenizer) step() error {
	top := &t.stack[len(t.stack)-1]
	txt := &frameText[top.kind]
	b, err := t.skipSpace()
	switch {
	case err == io.EOF && top.kind == frameStream:
		t.stack = t.stack[:0]
		return nil
	case err != nil && top.state == afterKey:
		return t.unexpectedEOF(err, "expecting value")
	case err != nil:
		return t.unexpectedEOF(err, txt.where)
	case top.kind == frameStream || top.state == afterKey:
		// A value must start here; below.
	case b == txt.closer && top.state != afterComma:
		return nil
	case top.state == afterValue:
		if b != ',' {
			return t.errf(txt.sep, b)
		}
		t.cur.Advance(1)
		top.state = afterComma
		return nil
	case top.kind == frameObject:
		if b != '"' {
			return t.errf("expected object key string, got %q", b)
		}
		key, err := t.readString(true)
		if err != nil {
			return err
		}
		if b, err = t.skipSpace(); err != nil || b != ':' {
			return t.unexpectedSep(err, b, "':' after object key")
		}
		t.cur.Advance(1)
		t.name, top.state = key, afterKey
		return nil
	}
	switch {
	case t.valueStarts(b):
		return nil
	case class[b]&cOpen != 0:
		return t.errf(tooDeep, event.MaxDepth)
	}
	return t.errf("unexpected %q at start of value", b)
}

// readScalar consumes the deferred scalar value, whose first byte Next
// vetted and left at the head of the window, and returns its text: ""
// for null and for the empty string.
func (t *Tokenizer) readScalar() (string, error) {
	switch t.cur.Window()[0] {
	case '"':
		return t.readString(false)
	case 't':
		return "true", t.literal("true")
	case 'f':
		return "false", t.literal("false")
	case 'n':
		return "", t.literal("null")
	}
	return t.readNumber()
}

// SkipSubtree fast-forwards past the value of the StartElement most
// recently returned by Next, without producing its events. Container
// and scalar values alike are raw-scanned at byte level — no string
// decoding, number parsing, key interning or event construction happens
// for the skipped region. The scan accepts a superset of what full
// tokenization would (DESIGN.md §8): it balances brackets and honors
// strings, and looks at nothing else.
func (t *Tokenizer) SkipSubtree() error {
	if t.err == nil {
		t.cur.Expire()
		t.err = t.skipSubtree()
	}
	return t.err
}

func (t *Tokenizer) skipSubtree() error {
	t.skipped.SubtreesSkipped++
	if t.scalarPending {
		// Scalar value: its bytes are still in the cursor; raw-scan
		// them without decoding.
		t.scalarPending = false
		t.skipped.TagsSkipped++ // the unproduced EndElement
		return t.skipScalar()
	}
	if len(t.stack) == 0 {
		return t.errf("SkipSubtree with no open element")
	}
	depth := len(t.stack) - 1
	outer := depth - 1 // an object, its '{' consumed: scan to the matching '}'
	switch t.stack[depth].kind {
	case frameArray:
		return t.errf("SkipSubtree not positioned on a start element")
	case frameStream:
		// Skipping the virtual root: consume the remaining input.
		outer, t.done = noOuter, true
	}
	err := t.rawSkip(depth, outer)
	t.stack = t.stack[:depth]
	return err
}

// skipScalar raw-scans the scalar at the head of the window as far as
// reading it would go, unvalidated: a string to its closing quote, a
// number while its bytes may be a number's, a keyword by its length.
func (t *Tokenizer) skipScalar() error {
	b := t.cur.Window()[0]
	if b == '"' {
		return t.rawSkip(0, 0)
	}
	if class[b]&cNumber != 0 {
		n, err := t.run(cNumber, cNumber)
		t.skipped.BytesSkipped += n
		return err
	}
	n := len("true")
	if b == 'f' {
		n = len("false")
	}
	w, err := t.cur.Peek(n)
	t.cur.Advance(len(w))
	t.skipped.BytesSkipped += int64(len(w))
	if err == io.EOF {
		return nil // cut short: the next event reports it
	}
	return err
}

// skipBlock is the step all raw skip loops share: poll the context,
// make sure input is buffered, and return at most one cursor block of
// it — so a skip on the slice backing, whose window is the whole
// remaining input, is cancelled as promptly as one on a reader.
func (t *Tokenizer) skipBlock() ([]byte, error) {
	if err := t.poll(); err != nil {
		return nil, err
	}
	if err := t.cur.Fill(); err != nil {
		return nil, err
	}
	return t.cur.Block(), nil
}

// noOuter is rawSkip's outer depth for the virtual root, which no
// bracket closes: the scan runs to the end of the input.
const noOuter = -1 << 31

// rawSkip consumes input from depth open containers (counted as the
// stack does, so the nesting ceiling holds inside a skipped value too)
// through the byte that brings the count down to outer: a closing
// bracket — or, where depth is outer to begin with, the closing quote
// of the string scalar the scan starts at. Strings are jumped with
// stringEnd, its parity carried from block to block; between them the
// loop walks bytes by class and counts ':' — one per object member,
// each of which would have produced an element: the lower bound that
// mirrors the XML tokenizer's tags-skipped counter.
func (t *Tokenizer) rawSkip(depth, outer int) error {
	inStr, esc := false, false
	for {
		buf, err := t.skipBlock()
		if err == io.EOF && outer == noOuter {
			return nil
		}
		if err != nil {
			return t.unexpectedEOF(err, "inside skipped value")
		}
		for i := 0; i < len(buf); {
			if inStr {
				var end int
				if end, esc = stringEnd(buf[i:], esc); end < 0 {
					break
				}
				inStr, i = false, i+end+1
				if depth != outer {
					continue
				}
			} else {
				c := class[buf[i]]
				i++
				switch c {
				case cQuote:
					inStr = true
				case cColon:
					t.skipped.TagsSkipped++
				case cOpen:
					if depth++; depth > event.MaxDepth {
						t.cur.Advance(i - 1)
						return t.errf(tooDeep, event.MaxDepth)
					}
				case cClose:
					depth--
				}
				if c != cClose || depth != outer {
					continue
				}
			}
			t.cur.Advance(i)
			t.skipped.BytesSkipped += int64(i)
			return nil
		}
		t.cur.Advance(len(buf))
		t.skipped.BytesSkipped += int64(len(buf))
	}
}

// run advances over the bytes b with class[b]&mask == want, a block at
// a time, to the first other byte or the end of the input, and returns
// how many they were.
func (t *Tokenizer) run(mask, want uint8) (n int64, err error) {
	for {
		w, err := t.skipBlock()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		i := 0
		for i < len(w) && class[w[i]]&mask == want {
			i++
		}
		t.cur.Advance(i)
		n += int64(i)
		if i < len(w) {
			return n, nil
		}
	}
}

// skipSpace advances past insignificant whitespace and returns the next
// byte without consuming it.
func (t *Tokenizer) skipSpace() (byte, error) {
	for {
		if err := t.cur.Fill(); err != nil {
			return 0, err
		}
		w := t.cur.Window()
		i := spaceEnd(w, 0)
		t.cur.Advance(i)
		if i < len(w) {
			return w[i], nil
		}
	}
}

// literal consumes an exact keyword (true/false/null).
func (t *Tokenizer) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		b, err := t.cur.Byte()
		if err != nil || b != lit[i] {
			if err == nil {
				t.cur.Unread()
			}
			return t.unexpectedSep(err, b, fmt.Sprintf("literal %q", lit))
		}
	}
	return nil
}

// readString consumes a JSON string, the cursor at its opening quote,
// and returns its decoded value; keys are interned. The string's bytes
// are captured as stringEnd finds their end; an escape-free string is
// handed out as it stands (borrowed from the input on the []byte path, a
// view of the capture on the reader path, and a key hits the intern
// cache without allocating), any other goes through unescape and is a
// view of the text scratch. One that never closes is reported as that,
// whatever it holds.
func (t *Tokenizer) readString(intern bool) (string, error) {
	t.cur.Advance(1)
	t.cur.Mark()
	for esc := false; ; {
		if err := t.cur.Fill(); err != nil {
			return "", t.unexpectedEOF(err, "inside string")
		}
		w := t.cur.Window()
		var end int
		if end, esc = stringEnd(w, esc); end >= 0 {
			t.cur.Advance(end + 1)
			break
		}
		t.cur.Advance(len(w))
	}
	raw := t.cur.Take() // through the closing quote
	s := raw[:len(raw)-1]
	plain := plainLen(s) == len(s)
	if !plain {
		var err error
		if s, err = t.unescape(raw); err != nil {
			return "", err
		}
	}
	if intern {
		return t.names.Intern(s), nil
	}
	return t.cur.View(s, plain), nil
}

// unescape decodes raw, a string's bytes through the closing quote the
// cursor has just passed, into the text scratch. Errors carry the
// offset just past the byte at fault, as reading in order would.
func (t *Tokenizer) unescape(raw []byte) ([]byte, error) {
	buf, end := t.textBuf[:0], len(raw)-1
	errAt := func(i int, format string, arg byte) ([]byte, error) {
		off := t.cur.Offset() - int64(len(raw)-i)
		return nil, &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, arg)}
	}
	for i := 0; i < end; {
		n := plainLen(raw[i:end])
		buf = append(buf, raw[i:i+n]...)
		if i += n; i == end {
			break
		}
		// raw[i] is a control byte, or a backslash — never the string's
		// last byte, that would have escaped the quote.
		c, e := raw[i], raw[i+1]
		switch {
		case c < 0x20:
			return errAt(i+1, "raw control character 0x%02x in string", c)
		case unescaped[e] != 0:
			buf = append(buf, unescaped[e])
			i += 2
			continue
		case e != 'u':
			return errAt(i+2, "invalid string escape '\\%c'", e)
		}
		r, j, ok := hex4(raw, i+2)
		if ok && utf16.IsSurrogate(r) {
			// Try to combine with a following \uXXXX low half.
			if raw[j] != '\\' || raw[j+1] != 'u' {
				r = utf8.RuneError
			} else if r2, j2, ok2 := hex4(raw, j+2); !ok2 {
				j, ok = j2, false
			} else if j, r = j2, utf16.DecodeRune(r, r2); r == utf8.RuneError {
				buf = utf8.AppendRune(buf, r) // one for each half
			}
		}
		if !ok {
			return errAt(j+1, "invalid hex digit %q in \\u escape", raw[j])
		}
		buf = utf8.AppendRune(buf, r)
		i = j
	}
	t.textBuf = buf
	return buf, nil
}

// hex4 reads the four digits of a \u escape at raw[i:] and returns the
// index after them, or with ok unset that of the byte that is none: raw
// ends in the closing quote, which stops a short escape.
func hex4(raw []byte, i int) (r rune, next int, ok bool) {
	for next = i; next < i+4; next++ {
		h := hexVal[raw[next]]
		if h == 0 {
			return 0, next, false
		}
		r = r<<4 | rune(h-1)
	}
	return r, next, true
}

// readNumber consumes a JSON number and returns its literal text
// verbatim, preserving the input's formatting. On the []byte path the
// literal is borrowed from the input without allocating.
func (t *Tokenizer) readNumber() (string, error) {
	t.cur.Mark()
	_, err := t.run(cNumber, cNumber)
	lit := t.cur.Take()
	if err != nil {
		return "", err
	}
	if len(lit) == 0 || (len(lit) == 1 && lit[0] == '-') {
		return "", t.errf("malformed number")
	}
	return t.cur.View(lit, true), nil
}

func (t *Tokenizer) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.cur.Offset(), Msg: fmt.Sprintf(format, args...)}
}

// unexpectedEOF folds an io error into a syntax error for truncated
// input, preserving genuine read errors.
func (t *Tokenizer) unexpectedEOF(err error, where string) error {
	if err == io.EOF {
		return t.errf("unexpected end of input %s", where)
	}
	return err
}

func (t *Tokenizer) unexpectedSep(err error, got byte, want string) error {
	if err != nil {
		return t.unexpectedEOF(err, "expecting "+want)
	}
	return t.errf("expected %s, got %q", want, got)
}
