package xmltok

import (
	"bytes"
	"io"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// Tokenizer reads an XML byte stream and produces Tokens one at a time.
//
// The zero value is not usable; construct with NewTokenizer (io.Reader
// input) or NewTokenizerBytes (zero-copy []byte input). The tokenizer
// validates well-formedness of the element nesting (tag-name balance)
// as it goes, so downstream components may assume that an EndElement
// always matches the innermost open StartElement.
//
// Input flows through a block cursor (internal/cursor, DESIGN.md §12):
// hot loops advance by vectorized window scans rather than per-byte
// reads, and the same scanning code serves both backings. On the
// []byte path, text tokens and attribute values borrow subslices of
// the input instead of allocating; the caller must not mutate the
// input slice while tokens are in use. On the reader path a token's
// Text is a view that the next Next or SkipSubtree invalidates
// (Volatile, DESIGN.md §12 "Token lifetime on the reader backing");
// Name and Attrs may be kept on both.
type Tokenizer struct {
	// rawScanner holds the cursor, the cancellation context (checked
	// at every token pull, so a streaming run aborts within one token
	// of cancellation) and the byte-level scans SkipSubtree and the
	// ignorable constructs go through.
	rawScanner

	// stack of currently open element names.
	stack []string

	// emptyOpen is set between the two tokens of a self-closing tag: its
	// StartElement has been returned, its name is on the stack, and the
	// EndElement is what the next call to Next synthesizes.
	emptyOpen bool

	// KeepWhitespace controls whether whitespace-only text nodes are
	// reported. Data-oriented processing (the default) drops them; the
	// round-trip property tests keep them.
	KeepWhitespace bool

	// skipper, when set, is asked about every start tag before Next
	// delivers it (SetSkipper).
	skipper event.Skipper

	// queue holds the start tags a seek stopped at (queueChain), of
	// which Next delivers queue[head] next: the chain unasked, the last
	// one, self-closing when queueEmpty is set, as a start tag just read.
	queue      []Token
	head       int
	queueEmpty bool

	count    int64
	started  bool
	released bool
	// err is the first error Next or SkipSubtree returned. It is final:
	// Next returns it again rather than read on from where it struck.
	err error

	// SkipSubtree counters (skip.go); rawScanner.tags is the third.
	bytesSkipped    int64
	subtreesSkipped int64
}

// tokenizerPool recycles Tokenizers — each carries a 64 KiB cursor
// window, its interned names and a text scratch buffer, which dominate
// the per-execution allocation cost of short queries over hot streams.
var tokenizerPool = cursor.NewPool(func() *Tokenizer { return new(Tokenizer) })

// NewTokenizer returns a Tokenizer reading from r. Tokenizers come from
// an internal pool; callers that finish with one may hand its buffers
// back via Release.
func NewTokenizer(r io.Reader) *Tokenizer {
	t := tokenizerPool.Get()
	t.cur.ResetReader(r, cursor.DefaultSize)
	t.reset()
	return t
}

// NewTokenizerBytes returns a Tokenizer scanning data in place: windows
// are served directly from the slice with no copying, and text tokens /
// attribute values borrow subslices of it. The caller must not mutate
// data until it is done with the tokenizer and every token it produced.
func NewTokenizerBytes(data []byte) *Tokenizer {
	t := tokenizerPool.Get()
	t.cur.ResetBytes(data)
	t.reset()
	return t
}

func (t *Tokenizer) reset() {
	t.stack = t.stack[:0]
	t.names.Reset()
	t.emptyOpen = false
	t.ctx = nil
	t.ctxDone = nil
	t.KeepWhitespace = false
	t.skipper = nil
	t.queue, t.head = t.queue[:0], 0
	t.count = 0
	t.started = false
	t.released = false
	t.err = nil
	t.bytesSkipped = 0
	t.tags = 0
	t.subtreesSkipped = 0
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
	t.ctx = nil
	t.ctxDone = nil
	rest := t.attrChunk[len(t.attrChunk):cap(t.attrChunk)]
	clear(rest) // an abandoned fast accept may have written there
	t.attrChunk = rest[:0]
	// The skipper is the run's preprojector, and through it the run's
	// whole buffer. The queue, no longer than event.MaxDepth, is kept
	// without the tokens' names and attributes.
	t.skipper = nil
	clear(t.queue[:cap(t.queue)])
	clear(t.kept[:cap(t.kept)]) // on the fixed backing, slices of the input
	// One huge text node, tag or skipped name must not pin its scratch
	// in the pool for every later run.
	if cap(t.textBuf) > cursor.MaxScratch {
		t.textBuf = nil
	}
	if cap(t.tag) > cursor.MaxScratch {
		t.tag = nil
	}
	if cap(t.nameBuf) > cursor.MaxScratch {
		t.nameBuf, t.nameLen = nil, nil
	}
	if cap(t.restBuf) > cursor.MaxScratch {
		t.restBuf = nil
	}
	tokenizerPool.Put(t)
}

// Volatile reports whether a token's Text dies at the next Next or
// SkipSubtree: true on the reader backing, false over a []byte.
func (t *Tokenizer) Volatile() bool { return !t.cur.Fixed() }

// Runs reports that XML states no run fact: siblings of one name may
// be interleaved with others (event.Source.Runs).
func (*Tokenizer) Runs() bool { return false }

// TokenCount reports how many tokens have been delivered so far. This is
// the x-axis of the paper's buffer plots ("number of tokens processed").
func (t *Tokenizer) TokenCount() int64 { return t.count }

// Depth reports the current element nesting depth: the open elements
// delivered, not those a seek has queued.
func (t *Tokenizer) Depth() int { return len(t.stack) - (len(t.queue) - t.head) }

// Next returns the next token of the stream. At end of input it returns
// io.EOF; if the input ends with unclosed elements, a SyntaxError is
// returned instead. If a context was attached with SetContext and has
// been cancelled, Next returns the context's error without reading.
// Once Next or SkipSubtree has failed, Next keeps returning that error.
//
// Next has two shapes (DESIGN.md §12, "The fast-accept token path").
// The regular tags of dense markup — "</" + the innermost open name +
// ">", and a start tag lying whole inside the current window — are
// recognised on one window snapshot with index arithmetic and consumed
// by a single Advance. Everything else, and every malformed input, goes
// through the careful per-construct code below it, which reports the
// errors: a fast accept either takes a well-formed tag whole or leaves
// the cursor untouched, and both read attributes through one grammar
// (attrList), so tokens, errors and offsets are the same on every
// backing and window size.
//
// Both shapes hand a start tag to one check before it is delivered: a
// child the skipper finds dead is dropped there (dropDead) and the loop
// reads on, and one it answers Seek for is seeked (seekChild): dropped
// too, or delivered with the start tags the seek stopped at queued
// behind it.
func (t *Tokenizer) Next() (Token, error) {
	if t.err != nil {
		return Token{}, t.err
	}
	if err := t.poll(); err != nil {
		return Token{}, err
	}
	t.cur.Expire()
	if t.emptyOpen {
		t.emptyOpen = false
		t.count++
		return Token{Kind: EndElement, Name: t.pop()}, nil
	}
	if t.head < len(t.queue) {
		return t.dequeue()
	}
	for {
		// tok is a local so that both shapes build their tokens straight
		// into the result.
		var tok Token
		w := t.cur.Window()
		if len(w) > 2 && w[0] == '<' {
			if w[1] == '/' {
				// One bounded compare against the name that must close
				// next settles a well-formed end tag: no name scan, no
				// interning.
				if n := len(t.stack); n > 0 {
					top := t.stack[n-1]
					if e := 2 + len(top); e < len(w) && w[e] == '>' && string(w[2:e]) == top {
						t.cur.Advance(e + 1)
						t.count++
						return Token{Kind: EndElement, Name: t.pop()}, nil
					}
				}
			} else if n := scanName(w[1:]); n > 0 && (len(t.stack) > 0 || !t.started) && len(t.stack) < event.MaxDepth {
				// A start tag in the right place; what remains is to find
				// it whole inside the window. The name is borrowed for an
				// error message, which only the careful path reports.
				name, rest := w[1:1+n], w[1+n:]
				if end, empty, attrs, _ := t.attrList(cursor.Borrow(name), rest, t.cur.Offset()+int64(1+n), true); end > 0 {
					tok = Token{Kind: StartElement, Name: t.names.Intern(name), Attrs: attrs}
					t.cur.Advance(1 + n + end)
					t.stack = append(t.stack, tok.Name)
					t.emptyOpen = empty
				}
			}
		}
		if tok.Name == "" {
			// No fast accept: the careful path.
			keep, err := t.readCareful(&tok)
			if err != nil {
				t.err = err
				return Token{}, err
			}
			if !keep {
				continue
			}
		}
		if tok.Kind == StartElement && t.skipper != nil {
			if keep, err := t.ask(tok); err != nil {
				return Token{}, err
			} else if !keep {
				continue
			}
		}
		t.count++
		return tok, nil
	}
}

// ask consults the skipper about the start tag tok just read and acts
// on the answer: a dead child is dropped (dropDead), a sought one
// seeked (seekChild). It reports whether tok is still to be delivered.
func (t *Tokenizer) ask(tok Token) (bool, error) {
	switch v, sought := t.skipper.Child(tok.Name); v {
	case event.Dead:
		return false, t.dropDead(tok.Attrs)
	case event.Seek:
		return t.seekChild(tok.Attrs, sought)
	}
	return true, nil
}

// dequeue delivers the next start tag a seek queued (queueChain): a
// chain element as it is, the sought tag, the last, as a start tag just
// read, asked about first. Next reads on if that one is dropped.
func (t *Tokenizer) dequeue() (Token, error) {
	tok := t.queue[t.head]
	if t.head++; t.head == len(t.queue) {
		t.emptyOpen = t.queueEmpty
		if keep, err := t.ask(tok); err != nil {
			return Token{}, err
		} else if !keep {
			return t.Next()
		}
	}
	t.count++
	return tok, nil
}

// pop closes the innermost open element and returns its name.
func (t *Tokenizer) pop() string {
	n := len(t.stack) - 1
	name := t.stack[n]
	t.stack = t.stack[:n]
	if n == 0 {
		t.started = true // the document element is complete
	}
	return name
}

// readCareful reads one construct — a run of character data or one
// piece of markup — through the cursor, a byte or a window at a time.
// It fills tok and returns keep = true when the construct is a token;
// ignorable ones (comments, PIs, declarations, dropped whitespace,
// CDATA outside the document element) return false. At end of input it
// returns io.EOF, or a SyntaxError while elements are open.
func (t *Tokenizer) readCareful(tok *Token) (keep bool, err error) {
	err = t.cur.Fill()
	if err == io.EOF {
		if len(t.stack) > 0 {
			return false, t.errf("unexpected end of input inside <%s>", t.stack[len(t.stack)-1])
		}
		return false, io.EOF
	}
	if err != nil {
		return false, err
	}
	if t.cur.Window()[0] != '<' {
		// Character data up to the next '<'.
		tok.Kind = Text
		tok.Text, keep, err = t.readText()
		return keep, err
	}
	t.cur.Advance(1)
	b, err := t.cur.Byte()
	if err != nil {
		return false, t.errf("unexpected end of input in markup")
	}
	switch b {
	case '?':
		return false, t.through("?>")
	case '!':
		term, err := t.bangTerminator()
		if err != nil {
			return false, err
		}
		if term != cdataEnd {
			return false, t.through(term)
		}
		t.cur.Mark()
		err = t.through(cdataEnd)
		text := t.cur.Take()
		if err != nil {
			return false, err
		}
		if len(t.stack) == 0 {
			return false, nil // CDATA outside root: ignore
		}
		tok.Kind, tok.Text = Text, t.cur.View(text[:len(text)-len(cdataEnd)], true)
		return true, nil
	case '/':
		tok.Kind = EndElement
		tok.Name, err = t.readEndTag()
		return err == nil, err
	default:
		t.cur.Unread()
		tok.Kind = StartElement
		tok.Name, tok.Attrs, err = t.readStartTag()
		return err == nil, err
	}
}

// readEndTag reads an end tag after "</" and closes the element.
func (t *Tokenizer) readEndTag() (string, error) {
	name, err := t.readName()
	if err != nil {
		return "", err
	}
	t.skipSpace()
	b, err := t.cur.Byte()
	if err != nil || b != '>' {
		return "", t.errf("malformed end tag </%s", name)
	}
	if len(t.stack) == 0 {
		return "", t.errf("unexpected </%s> with no open element", name)
	}
	if top := t.stack[len(t.stack)-1]; top != name {
		return "", t.errf("mismatched </%s>, expected </%s>", name, top)
	}
	return t.pop(), nil
}

// readStartTag reads a start tag after '<' and opens the element: its
// name, then the rest of the tag through the first '>' outside quotes,
// gathered across refills by readTagBody, which the attribute grammar
// reads.
func (t *Tokenizer) readStartTag() (string, []Attr, error) {
	if t.started && len(t.stack) == 0 {
		return "", nil, t.errf("content after document element")
	}
	name, err := t.readName()
	if err != nil {
		return "", nil, err
	}
	if len(t.stack) >= event.MaxDepth {
		return "", nil, t.errf(tooDeep, event.MaxDepth)
	}
	rest, err := t.readTagBody()
	if err != nil {
		return "", nil, err
	}
	_, empty, attrs, err := t.attrList(name, rest, t.cur.Offset()-int64(len(rest)), true)
	if err != nil {
		return "", nil, err
	}
	t.stack = append(t.stack, name)
	t.emptyOpen = empty
	return name, attrs, nil
}

// isWSByte reports whether b is literal XML whitespace.
func isWSByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// allWhitespace reports whether s is nothing but literal XML whitespace.
func allWhitespace[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if !isWSByte(s[i]) {
			return false
		}
	}
	return true
}

// readText accumulates character data up to (not including) the next
// '<', scanning whole windows for the structural bytes '<' and '&'.
// keep is false when the text is whitespace-only and KeepWhitespace is
// unset, or when it occurs outside the document element. Entity-free
// text that lies whole inside one window — all of it on the []byte path,
// nearly all on the reader path — is returned as that window's bytes,
// with no copy and no allocation; anything else is put together in
// textBuf. Either way the reader path hands out a view (Cursor.View).
// Whitespace-only runs are dropped before any token construction.
func (t *Tokenizer) readText() (text string, keep bool, err error) {
	t.textBuf = t.textBuf[:0]
	// whole is the run when one window holds all of it: on the []byte
	// path the window spans the whole input, on the reader path the run
	// must end at a '<' before the window does, because a refill would
	// move it.
	var whole []byte
	ws := true
	for {
		err := t.cur.Fill()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", false, err
		}
		w := t.cur.Window()
		bound := len(w)
		sawLT := false
		if i := bytes.IndexByte(w, '<'); i >= 0 {
			bound, sawLT = i, true
		}
		if j := bytes.IndexByte(w[:bound], '&'); j >= 0 {
			// Entity reference before the next '<': decode. The reference
			// is read from what follows it, on both paths alike, and may
			// legitimately reach past bound on malformed names.
			seg := w[:j]
			if ws {
				ws = allWhitespace(seg)
			}
			t.textBuf = append(t.textBuf, seg...)
			t.cur.Advance(j + 1)
			r, err := t.readEntity()
			if err != nil {
				return "", false, err
			}
			if ws && !allWhitespace(r) {
				ws = false
			}
			t.textBuf = append(t.textBuf, r...)
			continue
		}
		seg := w[:bound]
		if ws {
			ws = allWhitespace(seg)
		}
		if len(t.textBuf) == 0 && (sawLT || t.cur.Fixed()) {
			whole = seg
		} else {
			t.textBuf = append(t.textBuf, seg...)
		}
		t.cur.Advance(bound)
		if sawLT {
			break
		}
	}
	if len(t.stack) == 0 {
		if ws {
			return "", false, nil
		}
		return "", false, t.errf("character data outside document element")
	}
	if ws && !t.KeepWhitespace {
		return "", false, nil
	}
	if whole != nil {
		return t.cur.View(whole, true), true, nil
	}
	return t.cur.View(t.textBuf, false), true, nil
}

// readEntity resolves an entity reference in character data after '&'
// has been consumed, by the entity rule (ref) over the most a reference
// may take, without intermediate allocations.
func (t *Tokenizer) readEntity() (string, error) {
	at := t.cur.Offset()
	b, _ := t.cur.Peek(maxEntityName + 1)
	r, n, err := t.ref(b, at)
	t.cur.Advance(n)
	return r, err
}

// readName reads an XML name (simplified NCName: letters, digits, '.',
// '-', '_', ':'), interned. The common case — the whole name inside the
// current window — is a single bounded scan with a map lookup and no
// allocation; only names straddling a reader-path refill boundary take
// the accumulating slow path.
func (t *Tokenizer) readName() (string, error) {
	if err := t.cur.Fill(); err != nil {
		return "", t.errf("expected name")
	}
	w := t.cur.Window()
	i := 0
	for i < len(w) && isNameByte(w[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", t.errf("expected name")
	}
	if i < len(w) || t.cur.Fixed() {
		t.cur.Advance(i)
		return t.names.Intern(w[:i]), nil
	}
	// Name runs to the window edge on the reader path: accumulate.
	t.textBuf = append(t.textBuf[:0], w[:i]...)
	t.cur.Advance(i)
	for {
		b, err := t.cur.Byte()
		if err != nil {
			break
		}
		if !isNameByte(b, false) {
			t.cur.Unread()
			break
		}
		t.textBuf = append(t.textBuf, b)
	}
	return t.names.Intern(t.textBuf), nil
}

// nameStartByte/namePartByte classify XML name bytes by table lookup:
// the raw-skip fast loop touches every name byte, and a 256-entry table
// beats the branchy range switch there.
var nameStartByte, namePartByte [256]bool

func init() {
	for i := 0; i < 256; i++ {
		b := byte(i)
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_', b == ':':
			nameStartByte[i], namePartByte[i] = true, true
		case b >= '0' && b <= '9', b == '-', b == '.':
			namePartByte[i] = true
		case b >= 0x80: // permit multi-byte UTF-8 names without decoding
			nameStartByte[i], namePartByte[i] = true, true
		}
	}
}

func isNameByte(b byte, first bool) bool {
	if first {
		return nameStartByte[b]
	}
	return namePartByte[b]
}

func (t *Tokenizer) skipSpace() {
	for {
		if err := t.cur.Fill(); err != nil {
			return
		}
		w := t.cur.Window()
		i := 0
		for i < len(w) && isWSByte(w[i]) {
			i++
		}
		t.cur.Advance(i)
		if i < len(w) {
			return
		}
	}
}
