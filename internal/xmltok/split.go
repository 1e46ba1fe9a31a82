package xmltok

import (
	"io"

	"gcx/internal/cursor"
)

// Splitter cuts an XML byte stream into self-contained chunks at the
// record boundaries of a fixed child-axis element path (the partition
// path of sharded execution, DESIGN.md §6). It is a client of the raw
// scan: it reads tags itself only at the levels the partition path
// names, hands every subtree off that path to rawScanner.skipElement,
// and takes each record as its start tag plus one skip whose bytes it
// keeps (the cursor's Mark/Take). A chunk is a well-formed
// mini-document: the records verbatim, re-wrapped with synthesized
// open/close tags for the ancestor chain of the partition path, so a
// downstream Tokenizer sees the same element structure (and the same
// record tokens, byte for byte) as in the original document.
//
// Chunks are sealed when they reach the byte target, when an ancestor
// of the records closes (records under different ancestors never share
// a chunk, which keeps wildcard partition paths correct), and at end of
// input. Content outside record subtrees — ancestor attributes, text
// between records, unrelated sibling subtrees — is skipped; the
// shardability analysis guarantees the query cannot observe it.
type Splitter struct {
	rawScanner
	path   []SplitStep
	target int

	// open holds the names of the open elements the splitter descended
	// into. Each matched its level of path or auxPath — anything else
	// is skipped whole — so open is shallower than the longer of the
	// two, and it is the ancestor chain a chunk is re-wrapped in.
	// matchDepth and auxDepth count its leading levels that match path
	// and auxPath.
	open       []string
	matchDepth int
	auxDepth   int

	// Aux capture (join sharding, DESIGN.md §10): subtrees matching
	// auxPath are copied verbatim into aux on the same scanning pass,
	// available as one broadcast fragment after the scan. auxDivergence
	// is the first step index where auxPath departs from path; seal
	// leaves ancestors above it unclosed so the caller can append the
	// fragment inside the shared ancestor element.
	auxPath       []SplitStep
	auxDivergence int
	aux           []byte

	// Current chunk: buf starts with the synthesized ancestor open tags,
	// then accumulates record bytes.
	buf     []byte
	records int
	seq     int
	ready   *Chunk

	rootSeen bool
	done     bool
}

// SplitStep is one child-axis element test of a partition path.
type SplitStep struct {
	// Name is the element name to match; ignored when Wildcard is set.
	Name string
	// Wildcard matches any element (the child::* step).
	Wildcard bool
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
// path. The path must be non-empty; records sit at depth len(path).
func NewSplitter(r io.Reader, path []SplitStep) *Splitter {
	if len(path) == 0 {
		panic("xmltok: NewSplitter requires a non-empty partition path")
	}
	s := &Splitter{path: path, target: DefaultChunkTarget}
	s.cur.ResetReader(r, cursor.DefaultSize)
	return s
}

// NewSplitterBytes returns a Splitter scanning data in place: windows
// are served directly from the slice, so scanning never copies input
// into the refill buffer. Chunk documents are still built by copying
// record bytes, one record at a time (chunks are re-wrapped
// mini-documents consumed concurrently by workers), but the scan itself
// is zero-copy.
func NewSplitterBytes(data []byte, path []SplitStep) *Splitter {
	if len(path) == 0 {
		panic("xmltok: NewSplitterBytes requires a non-empty partition path")
	}
	s := &Splitter{path: path, target: DefaultChunkTarget}
	s.cur.ResetBytes(data)
	return s
}

// SetTargetBytes overrides the chunk size target (0 keeps the default).
func (s *Splitter) SetTargetBytes(n int) {
	if n > 0 {
		s.target = n
	}
}

// CaptureAux additionally captures the raw bytes of every subtree
// matching aux — a second record path, disjoint from the partition path
// from step divergence on — into a side buffer (AuxData). Chunks then
// keep their ancestors above divergence unclosed: the caller appends
// the aux fragment, re-wrapped with the missing tags, to every chunk
// document (join sharding's build-side broadcast, DESIGN.md §10).
// Must be called before the first Next.
func (s *Splitter) CaptureAux(aux []SplitStep, divergence int) {
	if len(aux) == 0 || divergence < 1 || divergence >= len(aux) {
		panic("xmltok: CaptureAux needs a non-empty aux path diverging below the root")
	}
	s.auxPath = aux
	s.auxDivergence = divergence
}

// AuxData returns the captured aux subtree bytes. Complete only after
// Next has returned io.EOF: aux subtrees may follow the last record in
// document order.
func (s *Splitter) AuxData() []byte { return s.aux }

// Next returns the next chunk of the stream in input order. At end of
// input it returns io.EOF; malformed nesting is reported as a
// SyntaxError just as the Tokenizer would.
func (s *Splitter) Next() (Chunk, error) {
	for {
		if s.ready != nil {
			c := *s.ready
			s.ready = nil
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
	outside := len(s.open) == 0
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
		if !resolvesToWhitespace(text) {
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

func allWhitespace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// resolvesToWhitespace reports whether character data is whitespace-only
// after entity resolution. The tokenizer resolves references before its
// whitespace test, so text like "&#32;" outside the document element is
// accepted there; the splitter must agree (FuzzSplitter parity). The
// entity grammar mirrors the tokenizer's: ';'-terminated, at most 12
// name bytes.
func resolvesToWhitespace(b []byte) bool {
	for i := 0; i < len(b); {
		switch c := b[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '&':
			j := i + 1
			for j < len(b) && b[j] != ';' {
				j++
			}
			if j >= len(b) || j-i-1 > 12 {
				return false
			}
			r, ok := resolveEntity(string(b[i+1 : j]))
			if !ok || !allWhitespace([]byte(r)) {
				return false
			}
			i = j + 1
		default:
			return false
		}
	}
	return true
}

// construct handles the markup construct following '<' at a level the
// splitter tracks: an end tag closes the innermost open ancestor, a
// start tag either opens the next ancestor or is a whole subtree to
// skip — and to keep, when it is a record or an aux subtree.
func (s *Splitter) construct() error {
	d := len(s.open)
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
		if top := s.open[d-1]; top != string(name) {
			return s.errf("mismatched </%s>, expected </%s>", name, top)
		}
		if d < len(s.path) && s.records > 0 {
			// an ancestor of the open chunk's records closed
			s.seal()
		}
		s.open = s.open[:d-1]
		s.matchDepth = min(s.matchDepth, d-1)
		s.auxDepth = min(s.auxDepth, d-1)
		if d == 1 {
			s.rootSeen = true
		}
		return nil
	}
	matched := d == s.matchDepth && d < len(s.path) && s.path[d].matches(name)
	auxMatched := d == s.auxDepth && d < len(s.auxPath) && s.auxPath[d].matches(name)
	isRecord := matched && d+1 == len(s.path)
	isAux := auxMatched && d+1 == len(s.auxPath)
	if kind == openTag && !isRecord && !isAux && (matched || auxMatched) {
		s.open = append(s.open, string(name))
		if matched {
			s.matchDepth = d + 1
		}
		if auxMatched {
			s.auxDepth = d + 1
		}
		return nil
	}
	// A whole subtree: start tag, one skip, and the bytes the skip
	// covered.
	if isRecord {
		if s.records == 0 {
			s.beginChunk()
		}
		s.records++
		s.buf = appendTag(s.buf, "<", body)
	}
	if isAux {
		s.aux = appendTag(s.aux, "<", body)
	}
	if kind == openTag {
		keep := isRecord || isAux
		if keep {
			s.cur.Mark()
		}
		err = s.skipElement(name, d+1)
		if keep {
			inside := s.cur.Take()
			if isRecord {
				s.buf = append(s.buf, inside...)
			}
			if isAux {
				s.aux = append(s.aux, inside...)
			}
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

// beginChunk starts a chunk at its first record with the synthesized
// open tags of the ancestor chain.
func (s *Splitter) beginChunk() {
	if s.buf == nil {
		s.buf = make([]byte, 0, s.target+4096)
	}
	for _, name := range s.open {
		s.buf = appendTag(s.buf, "<", name)
	}
}

// seal closes the current chunk: append the ancestor close tags and
// hand the buffer off as the next ready chunk. Every seal point — a
// record just closed, the innermost ancestor closing, end of input —
// finds open equal to the chain beginChunk wrote. With aux capture
// active the ancestors above the divergence stay open — the executor
// appends the aux fragment (which closes them) to every chunk.
func (s *Splitter) seal() {
	stop := 0
	if s.auxPath != nil {
		stop = s.auxDivergence
	}
	for i := len(s.open) - 1; i >= stop; i-- {
		s.buf = appendTag(s.buf, "</", s.open[i])
	}
	s.ready = &Chunk{Seq: s.seq, Records: s.records, Data: s.buf}
	s.seq++
	s.buf = nil
	s.records = 0
}

// finish handles end of input.
func (s *Splitter) finish() error {
	if d := len(s.open); d > 0 {
		return s.errf("unexpected end of input inside <%s>", s.open[d-1])
	}
	s.done = true
	if s.records > 0 {
		s.seal()
	}
	return nil
}
