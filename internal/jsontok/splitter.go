package jsontok

import (
	"bytes"
	"context"
	"io"

	"gcx/internal/cursor"
)

// DefaultChunkTarget is the default chunk size target in bytes,
// matching the XML splitter's: chunks seal at the first record (line)
// boundary at or past the target.
const DefaultChunkTarget = 64 << 10

// Chunk is one self-contained slice of an NDJSON stream: whole lines,
// each a complete record.
type Chunk struct {
	// Seq is the chunk's position in input order (0-based); the merge
	// serializer emits chunk outputs in Seq order.
	Seq int
	// Records is the number of lines holding a byte outside the
	// tokenizer's whitespace class.
	Records int
	// Data is the chunk's bytes: the input verbatim, blank lines
	// included, from one line start to a newline or the end of input.
	// On the []byte path it is a zero-copy subslice of the input.
	Data []byte
}

// Splitter cuts an NDJSON byte stream into record-aligned chunks for
// sharded execution (DESIGN.md §6/§8). Unlike the XML splitter, which
// raw-scans element nesting to find record boundaries and re-wraps
// chunks with synthesized ancestor tags, NDJSON's record boundary is a
// newline: the splitter steps over whole lines until the byte target —
// no nesting scan, no re-wrapping, no content outside records. Each
// chunk tokenizes into the same virtual root/record structure as the
// full stream, so the worker engines' projection paths match unchanged.
//
// Lines are not parsed here. The one thing the splitter decides is
// whether a line is blank, and it asks the tokenizer's byte classes: a
// chunk whose every byte is insignificant whitespace is dropped, since
// the tokenizer would read it as nothing; every other byte reaches a
// worker, so a malformed record surfaces as the syntax error the
// sequential run reports (at a chunk-relative offset).
type Splitter struct {
	cur    *cursor.Cursor
	ctx    context.Context
	target int
	seq    int
}

// NewSplitter returns a Splitter reading NDJSON records from r.
func NewSplitter(r io.Reader) *Splitter {
	return &Splitter{cur: cursor.NewReader(r, cursor.DefaultSize), target: DefaultChunkTarget}
}

// NewSplitterBytes returns a Splitter scanning data in place. Chunk
// Data values are subslices of data — no copying — so the caller must
// not mutate data while chunks are being processed.
func NewSplitterBytes(data []byte) *Splitter {
	return &Splitter{cur: cursor.NewBytes(data), target: DefaultChunkTarget}
}

// SetContext attaches a cancellation context, checked at the start of
// every chunk and at every refill of the reader window.
func (sp *Splitter) SetContext(ctx context.Context) { sp.ctx = ctx }

// SetTargetBytes overrides the chunk size target (0 keeps the default).
func (sp *Splitter) SetTargetBytes(n int) {
	if n > 0 {
		sp.target = n
	}
}

// Next returns the next chunk, or io.EOF after the last one. A chunk
// runs from the first unread byte to the first line end at or past the
// target, or to the end of input. On the []byte path Data is a
// zero-copy subslice of the input; on the reader path it is a copy
// owned by the caller. Either way the splitter keeps no mutable
// reference, so chunks can be processed concurrently.
func (sp *Splitter) Next() (Chunk, error) {
	for {
		if err := sp.poll(); err != nil {
			return Chunk{}, err
		}
		if err := sp.cur.Fill(); err != nil {
			return Chunk{}, err
		}
		sp.cur.Mark()
		size, records, blank := 0, 0, true
		for {
			w := sp.cur.Window()
			if n := bytes.IndexByte(w, '\n') + 1; n > 0 {
				sp.cur.Advance(n)
				size += n
				if !blank || !isSpace(w[:n]) {
					records++
				}
				blank = true
				if size >= sp.target {
					break
				}
				continue
			}
			// The window ends inside a line: step over its start and
			// refill.
			blank = blank && isSpace(w)
			sp.cur.Advance(len(w))
			size += len(w)
			if err := sp.poll(); err != nil {
				return Chunk{}, err
			}
			if err := sp.cur.Fill(); err != nil {
				if err != io.EOF {
					return Chunk{}, err
				}
				if !blank {
					records++
				}
				break
			}
		}
		data := sp.cur.Take()
		if records == 0 {
			// All insignificant whitespace: nothing for a worker to read.
			continue
		}
		if !sp.cur.Fixed() {
			data = bytes.Clone(data)
		}
		c := Chunk{Seq: sp.seq, Records: records, Data: data}
		sp.seq++
		return c, nil
	}
}

func (sp *Splitter) poll() error {
	if sp.ctx == nil {
		return nil
	}
	return sp.ctx.Err()
}

// isSpace reports whether every byte of b is insignificant whitespace
// to the tokenizer.
func isSpace(b []byte) bool {
	for _, c := range b {
		if class[c]&cSpace == 0 {
			return false
		}
	}
	return true
}
