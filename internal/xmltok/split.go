package xmltok

import (
	"io"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// Splitter cuts an XML byte stream into self-contained chunks at the
// record boundaries of a fixed element path (the partition path of
// sharded execution, DESIGN.md §6). It is a client of the raw scan: it
// reads tags itself only at the levels the partition path names, hands
// every subtree off that path to rawScanner.skipElement, and takes each
// record as its start tag plus one skip whose bytes it keeps (the
// cursor's Mark/Take). A chunk is a well-formed mini-document: the
// records verbatim, re-wrapped with synthesized open/close tags for the
// ancestors the path's child steps matched (the wrap chain), so a
// downstream Tokenizer sees the same element structure (and the same
// record tokens, byte for byte) as in the original document.
//
// When the path's last step is a descendant step, the records are its
// outermost matches: from the record level down, an element that does
// not match is descended into rather than skipped, and its tags are not
// kept. Records from different such elements may share a chunk, since
// the wrap chain is the same.
//
// Chunks are sealed when they reach the byte target, when an element of
// the wrap chain closes (records under different ancestors never share
// a chunk, which keeps wildcard partition paths correct), and at end of
// input. Content outside record subtrees — ancestor attributes, text
// between records, unrelated sibling subtrees — is skipped; the
// shardability analysis guarantees the query cannot observe it.
type Splitter struct {
	rawScanner
	path   []SplitStep
	target int

	// openNames and openEnds are the stack of open elements the splitter
	// descended into, names back to back (no allocation per level):
	// name i ends at openEnds[i]. The first len(path)-1 matched the
	// path's child steps and are the chain a chunk is re-wrapped in;
	// deeper ones exist only under a descendant last step.
	openNames []byte
	openEnds  []int

	// Current chunk: buf starts with the synthesized ancestor open tags,
	// then accumulates record bytes. spare is a consumed chunk's buffer
	// handed back through Reuse, which the next chunk is built in; ready
	// is a sealed chunk Next has yet to return (Data nil: none).
	buf     []byte
	spare   []byte
	records int
	seq     int
	ready   Chunk

	rootSeen bool
	done     bool
}

// SplitStep is one element test of a partition path: a child step, or
// on the last step only a descendant step.
type SplitStep struct {
	// Name is the element name to match; ignored when Wildcard is set.
	Name string
	// Wildcard matches any element (the child::* step).
	Wildcard bool
	// Descendant makes the step a descendant step: its records are the
	// outermost matches at any depth below the previous step's match.
	Descendant bool
}

func (st SplitStep) matches(name []byte) bool {
	return st.Wildcard || st.Name == string(name)
}

// Chunk is one self-contained slice of the input document.
type Chunk struct {
	// Seq is the chunk's position in input order (0-based); the merge
	// serializer emits chunk outputs in Seq order.
	Seq int
	// Records is the number of record subtrees in the chunk.
	Records int
	// Data is the chunk document: synthesized ancestor open tags, the
	// record bytes verbatim, synthesized close tags.
	Data []byte
}

// DefaultChunkTarget is the default chunk size target in bytes. Chunks
// seal at the first record boundary at or past the target — small
// enough that typical record sections split into several chunks per
// worker (load balancing), large enough to amortize per-chunk engine
// setup over hundreds of records.
const DefaultChunkTarget = 64 << 10

// NewSplitter returns a Splitter reading from r, cutting records at
// path. The path must be non-empty and only its last step may be a
// descendant step; records sit at depth len(path), or below it under a
// descendant step.
func NewSplitter(r io.Reader, path []SplitStep) *Splitter {
	s := newSplitter(path)
	s.cur.ResetReader(r, cursor.DefaultSize)
	return s
}

func newSplitter(path []SplitStep) *Splitter {
	if len(path) == 0 {
		panic("xmltok: a Splitter requires a non-empty partition path")
	}
	for _, st := range path[:len(path)-1] {
		if st.Descendant {
			panic("xmltok: only the last step of a partition path may be a descendant step")
		}
	}
	return &Splitter{path: path, target: DefaultChunkTarget}
}

// NewSplitterBytes returns a Splitter scanning data in place: windows
// are served directly from the slice, so scanning never copies input
// into the refill buffer. Chunk documents are still built by copying
// record bytes, one record at a time (chunks are re-wrapped
// mini-documents consumed concurrently by workers), but the scan itself
// is zero-copy.
func NewSplitterBytes(data []byte, path []SplitStep) *Splitter {
	s := newSplitter(path)
	s.cur.ResetBytes(data)
	return s
}

// SetTargetBytes overrides the chunk size target (0 keeps the default).
func (s *Splitter) SetTargetBytes(n int) {
	if n > 0 {
		s.target = n
	}
}

// Reuse hands back the Data of a chunk the caller is done with: the
// next chunk is built in it instead of a new buffer. Only one is kept.
func (s *Splitter) Reuse(buf []byte) { s.spare = buf }

// Next returns the next chunk of the stream in input order. At end of
// input it returns io.EOF; malformed nesting is reported as a
// SyntaxError just as the Tokenizer would. The chunk's Data is the
// caller's until it hands it back through Reuse.
func (s *Splitter) Next() (Chunk, error) {
	for {
		if s.ready.Data != nil {
			c := s.ready
			s.ready = Chunk{}
			return c, nil
		}
		if s.done {
			return Chunk{}, io.EOF
		}
		if err := s.poll(); err != nil {
			return Chunk{}, err
		}
		if err := s.scan(); err != nil {
			return Chunk{}, err
		}
	}
}

// scan consumes the character data in front of the next markup
// construct at a level the splitter tracks, then the construct. The
// data is dropped, except that outside the document element it must be
// whitespace.
func (s *Splitter) scan() error {
	outside := len(s.openEnds) == 0
	start := s.cur.Offset()
	if outside {
		s.cur.Mark()
	}
	_, err := s.cur.SkipPast('<')
	if err != nil && err != io.EOF {
		// errf reports a pending read error as itself.
		return s.errf("read error")
	}
	if outside {
		text := s.cur.Take()
		if err == nil {
			text = text[:len(text)-1] // the '<'
		}
		if !s.resolvesToWhitespace(text) {
			msg := "character data outside document element"
			if s.rootSeen {
				msg = "content after document element"
			}
			return &SyntaxError{Offset: start, Msg: msg}
		}
	}
	if err != nil {
		return s.finish()
	}
	return s.construct()
}

// resolvesToWhitespace reports whether character data is whitespace-only
// after entity resolution. The tokenizer resolves references before its
// whitespace test, so text like "&#32;" outside the document element is
// accepted there; the splitter reads them by the same entity rule, ref
// (FuzzSplitter parity).
func (s *Splitter) resolvesToWhitespace(b []byte) bool {
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case isWSByte(c):
		case c == '&':
			r, n, err := s.ref(b[i+1:], 0)
			if err != nil || !allWhitespace(r) {
				return false
			}
			i += n
		default:
			return false
		}
	}
	return true
}

// construct handles the markup construct following '<' at a level the
// splitter tracks: an end tag closes the innermost open element, a
// start tag either opens the next ancestor, is descended into under a
// descendant last step, or is a whole subtree to skip — and to keep,
// when it is a record.
func (s *Splitter) construct() error {
	d := len(s.openEnds)
	if d == 0 && s.rootSeen {
		if p, _ := s.cur.Peek(1); len(p) == 1 && p[0] != '?' && p[0] != '!' && p[0] != '/' {
			return s.errf("content after document element")
		}
	}
	kind, name, body, err := s.markup()
	if err != nil || kind == noTag {
		return err
	}
	if kind == closeTag {
		if d == 0 {
			return s.errf("unexpected </%s> with no open element", name)
		}
		if top := s.openName(d - 1); string(top) != string(name) {
			return s.errf("mismatched </%s>, expected </%s>", name, top)
		}
		if d < len(s.path) && s.records > 0 {
			// an element of the open chunk's wrap chain closed
			s.seal()
		}
		s.openNames = s.openNames[:len(s.openNames)-len(name)]
		s.openEnds = s.openEnds[:d-1]
		if d == 1 {
			s.rootSeen = true
		}
		return nil
	}
	if d >= event.MaxDepth {
		return s.errf(tooDeep, event.MaxDepth)
	}
	// A start tag the splitter reads itself goes through the attribute
	// grammar, so a sharded run fails on it as full tokenization does,
	// at the same input offset, where a worker would report a record's
	// tag at a chunk offset.
	rest := body[len(name):]
	if _, _, _, err := s.attrList(cursor.Borrow(name), rest, s.cur.Offset()-int64(len(rest)), false); err != nil {
		return err
	}
	last := len(s.path) - 1
	isRecord, descend := false, false
	switch {
	case d < last:
		descend = s.path[d].matches(name)
	case d == last || s.path[last].Descendant:
		isRecord = s.path[last].matches(name)
		descend = !isRecord && s.path[last].Descendant
	}
	if descend && kind == openTag {
		s.openNames = append(s.openNames, name...)
		s.openEnds = append(s.openEnds, len(s.openNames))
		return nil
	}
	// A whole subtree: start tag, one skip, and the bytes the skip
	// covered.
	if isRecord {
		if s.records == 0 {
			s.beginChunk()
		}
		s.records++
		s.buf = append(append(s.buf, '<'), body...)
	}
	if kind == openTag {
		if isRecord {
			s.cur.Mark()
		}
		err = s.skipElement(name, d+1)
		if isRecord {
			s.buf = append(s.buf, s.cur.Take()...)
		}
		if err != nil {
			return err
		}
	}
	if d == 0 {
		s.rootSeen = true
	}
	if isRecord && len(s.buf) >= s.target {
		s.seal()
	}
	return nil
}

// appendTag appends open + name + ">" to dst.
func appendTag[S string | []byte](dst []byte, open string, name S) []byte {
	return append(append(append(dst, open...), name...), '>')
}

// openName returns the name of the i-th open element, outermost first.
func (s *Splitter) openName(i int) []byte {
	start := 0
	if i > 0 {
		start = s.openEnds[i-1]
	}
	return s.openNames[start:s.openEnds[i]]
}

// wrapDepth is the length of the wrap chain: the open elements the
// path's child steps matched.
func (s *Splitter) wrapDepth() int { return min(len(s.openEnds), len(s.path)-1) }

// beginChunk starts a chunk at its first record with the synthesized
// open tags of the wrap chain.
func (s *Splitter) beginChunk() {
	s.buf, s.spare = s.spare[:0], nil
	if s.buf == nil {
		s.buf = make([]byte, 0, s.target+4096)
	}
	for i := range s.wrapDepth() {
		s.buf = appendTag(s.buf, "<", s.openName(i))
	}
}

// seal closes the current chunk: append the wrap chain's close tags and
// hand the buffer off as the next ready chunk. Every seal point — a
// record just closed, the innermost wrap element closing, end of
// input — finds the wrap chain beginChunk wrote still open.
func (s *Splitter) seal() {
	for i := s.wrapDepth() - 1; i >= 0; i-- {
		s.buf = appendTag(s.buf, "</", s.openName(i))
	}
	s.ready = Chunk{Seq: s.seq, Records: s.records, Data: s.buf}
	s.seq++
	s.buf = nil
	s.records = 0
}

// finish handles end of input.
func (s *Splitter) finish() error {
	if d := len(s.openEnds); d > 0 {
		return s.errf("unexpected end of input inside <%s>", s.openName(d-1))
	}
	s.done = true
	if s.records > 0 {
		s.seal()
	}
	return nil
}
