// Package cursor implements the block-oriented input abstraction the
// byte-path front ends (internal/xmltok, internal/jsontok) scan through
// (DESIGN.md §12). A Cursor presents the input as contiguous []byte
// windows so hot loops advance by vectorized bulk scans
// (bytes.IndexByte, SSE/AVX-backed in the Go runtime) instead of
// per-byte reads, with exactly one code path over two backings:
//
//   - slice-backed (NewBytes): the window IS the input. No copy ever
//     happens; subslices stay valid for the life of the run, so
//     tokenizers may hand out borrowed strings (Borrow) instead of
//     allocating.
//   - reader-backed (NewReader): a refillable buffer. Windows are valid
//     only until the next refill (Fill/Byte/Peek past the window), so
//     what a tokenizer hands out is either a view that dies at the next
//     pull (View) or a copy in the cursor's value arena (Keep).
//
// Fixed() distinguishes the two; everything else is identical, which is
// what keeps the tokenizer/splitter/skip machinery single-pathed.
//
// Aliasing contract of the slice backing: the caller must not mutate
// the input slice while any consumer of the cursor's windows (tokens,
// chunks, borrowed strings) is live. The engine's public entry points
// (gcx.ExecuteBytes) scope that to the duration of the call.
package cursor

import (
	"bytes"
	"io"
	"testing"
	"unsafe"
)

// DefaultSize is the reader-backed window size. It matches the 64 KiB
// bufio buffers the front ends historically used.
const DefaultSize = 64 << 10

// minSize keeps degenerate window sizes (tests use tiny ones to force
// refill boundaries) from breaking Peek's small-lookahead needs.
const minSize = 16

// pollStride is the most input a scan loop covers between two
// cancellation polls (Block). It equals the reader window, so the fixed
// backing — whose window is the whole remaining input — is scanned in
// the same units as the reader backing.
const pollStride = DefaultSize

// MaxScratch is the most scratch a pooled front end carries from one
// run to the next: the cursor's capture spill and the tokenizers' text
// buffers grow to the largest value they met, and Release drops the ones
// above it, so one huge text node does not stay pinned in the pool.
const MaxScratch = 1 << 20

// maxEmptyReads bounds spinning on a broken reader that returns (0, nil)
// forever, mirroring bufio.ErrNoProgress behavior.
const maxEmptyReads = 100

// Cursor is a window-oriented byte source. The zero value is unusable;
// construct with NewBytes or NewReader, or embed one and call
// ResetBytes/ResetReader.
type Cursor struct {
	buf  []byte // buf[pos:] is the unread window
	pos  int
	base int64 // absolute input offset of buf[0]

	r       io.Reader
	scratch []byte // reader-mode backing array; nil on the fixed path
	fixed   bool

	// marked is set between Mark and Take: buf[mark:pos] are the marked
	// bytes still in the window; held are those a refill compacted away
	// (reader backing only).
	marked bool
	mark   int
	held   []byte

	// values holds Keep's copies. view is, under go test only, the bytes
	// of the last View, which Expire overwrites.
	values Arena
	view   []byte

	// err is the sticky condition that ends refilling: io.EOF or a read
	// error. Fixed cursors are born exhausted (err = io.EOF).
	err error
	// ioErr records the first non-EOF read error so callers can report
	// infrastructure failures as themselves rather than syntax errors.
	ioErr error
}

// NewBytes returns a slice-backed Cursor serving windows directly from
// data with no copying. See the package comment for the aliasing
// contract.
func NewBytes(data []byte) *Cursor {
	c := new(Cursor)
	c.ResetBytes(data)
	return c
}

// NewReader returns a reader-backed Cursor with a window of size bytes
// (≤ 0 uses DefaultSize).
func NewReader(r io.Reader, size int) *Cursor {
	c := new(Cursor)
	c.ResetReader(r, size)
	return c
}

// ResetBytes re-arms the cursor over a fixed slice, keeping any
// reader-mode scratch for later reuse (pooling) — except a capture spill
// above MaxScratch: a pooled tokenizer is released through
// ResetBytes(nil).
func (c *Cursor) ResetBytes(data []byte) {
	if cap(c.held) > MaxScratch {
		c.held = nil
	}
	c.buf = data
	c.pos = 0
	c.base = 0
	c.r = nil
	c.fixed = true
	c.marked = false
	c.err = io.EOF
	c.ioErr = nil
}

// ResetReader re-arms the cursor over a reader, reusing the existing
// scratch when it is at least the requested size.
func (c *Cursor) ResetReader(r io.Reader, size int) {
	if size <= 0 {
		size = DefaultSize
	}
	if size < minSize {
		size = minSize
	}
	if cap(c.scratch) < size {
		c.scratch = make([]byte, 0, size)
	}
	// The window's capacity is the requested size even when a larger
	// scratch is being reused: refills work within cap(c.buf).
	c.buf = c.scratch[:0:size]
	c.pos = 0
	c.base = 0
	c.r = r
	c.fixed = false
	c.marked = false
	c.err = nil
	c.ioErr = nil
}

// Fixed reports whether the cursor is slice-backed: windows (and
// subslices of them) stay valid for the cursor's whole life, so callers
// may borrow instead of copy.
func (c *Cursor) Fixed() bool { return c.fixed }

// Offset is the absolute input offset of the next unread byte.
func (c *Cursor) Offset() int64 { return c.base + int64(c.pos) }

// IOErr returns the first non-EOF read error encountered, if any.
func (c *Cursor) IOErr() error { return c.ioErr }

// Window returns the unread buffered bytes. It may be empty; call Fill
// to refill first. The window is invalidated by the next refill unless
// Fixed.
func (c *Cursor) Window() []byte { return c.buf[c.pos:] }

// Block is Window clamped to pollStride bytes: the unit a long raw scan
// covers between two cancellation polls, the same on both backings.
func (c *Cursor) Block() []byte {
	return c.buf[c.pos:min(len(c.buf), c.pos+pollStride)]
}

// Mark starts capturing at the current offset; Take returns every byte
// consumed since and ends the capture. It is the one way a scanner
// keeps the bytes it advances over: on the fixed backing Take returns
// a subslice of the input (valid for the cursor's life, so it may be
// Borrowed); on the reader backing marked bytes are saved when a refill
// compacts them out of the window, and Take's result is valid only
// until the next refill or Mark. There is one mark; a second Mark
// replaces the first. Unread must not step back over the mark.
func (c *Cursor) Mark() {
	c.marked, c.mark, c.held = true, c.pos, c.held[:0]
}

// Take ends the capture begun by Mark and returns its bytes.
func (c *Cursor) Take() []byte {
	b := c.buf[c.mark:c.pos]
	c.marked = false
	if len(c.held) > 0 {
		c.held = append(c.held, b...)
		return c.held
	}
	return b
}

// Advance consumes n bytes of the current window. n must not exceed
// len(Window()).
func (c *Cursor) Advance(n int) { c.pos += n }

// Byte returns the next input byte. At end of input it returns the
// sticky error (io.EOF, or the read error that ended the stream).
func (c *Cursor) Byte() (byte, error) {
	if c.pos < len(c.buf) {
		b := c.buf[c.pos]
		c.pos++
		return b, nil
	}
	return c.byteSlow()
}

func (c *Cursor) byteSlow() (byte, error) {
	if err := c.Fill(); err != nil {
		return 0, err
	}
	b := c.buf[c.pos]
	c.pos++
	return b, nil
}

// Unread steps back over the byte most recently consumed with Byte (or
// a 1-byte Advance). It is valid for exactly one byte: refills retain
// one byte of history, so an Unread immediately after a consuming call
// never falls off the window's front.
func (c *Cursor) Unread() { c.pos-- }

// Fill ensures the window is non-empty, refilling from the reader when
// it is exhausted. It returns nil when at least one unread byte is
// buffered and the sticky error (io.EOF or a read error) otherwise.
func (c *Cursor) Fill() error {
	if c.pos < len(c.buf) {
		return nil
	}
	return c.refill(1)
}

// Peek returns the next n unread bytes without consuming them,
// refilling as needed. If fewer than n bytes remain it returns the
// remainder along with the sticky error. n must fit the window size.
func (c *Cursor) Peek(n int) ([]byte, error) {
	for len(c.buf)-c.pos < n {
		if err := c.refill(n); err != nil {
			return c.buf[c.pos:], err
		}
	}
	return c.buf[c.pos : c.pos+n], nil
}

// refill makes room and reads more input, guaranteeing on success that
// the window grew. It retains one byte of consumed history (the Unread
// contract) plus all unread bytes.
func (c *Cursor) refill(need int) error {
	if c.err != nil {
		return c.err
	}
	// Compact: keep one byte of history when any byte was consumed, plus
	// the unread tail.
	keep := 0
	if c.pos > 0 {
		keep = 1
	}
	start := c.pos - keep
	if start > 0 {
		if c.marked {
			if c.mark < start {
				c.held = append(c.held, c.buf[c.mark:start]...)
				c.mark = start
			}
			c.mark -= start
		}
		n := copy(c.buf[:cap(c.buf)], c.buf[start:])
		c.base += int64(start)
		c.buf = c.buf[:n]
		c.pos = keep
	}
	for i := 0; ; {
		if len(c.buf) == cap(c.buf) {
			// Window full and still short of need: the caller asked for
			// more lookahead than the window holds.
			return io.ErrShortBuffer
		}
		n, err := c.r.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err != nil {
			c.err = err
			if err != io.EOF {
				c.ioErr = err
			}
		}
		if len(c.buf)-c.pos >= need || (n > 0 && need <= 1) {
			return nil
		}
		if err != nil {
			return err
		}
		if n == 0 {
			if i++; i >= maxEmptyReads {
				c.err = io.ErrNoProgress
				c.ioErr = io.ErrNoProgress
				return c.err
			}
		} else {
			i = 0
		}
	}
}

// SkipPast consumes input through the first occurrence of delim using
// vectorized window scans, returning the number of bytes consumed
// (including delim). If the input ends first, every remaining byte is
// consumed and the sticky error returned.
func (c *Cursor) SkipPast(delim byte) (int64, error) {
	var n int64
	for {
		if err := c.Fill(); err != nil {
			return n, err
		}
		w := c.buf[c.pos:]
		if i := bytes.IndexByte(w, delim); i >= 0 {
			c.pos += i + 1
			return n + int64(i) + 1, nil
		}
		c.pos += len(w)
		n += int64(len(w))
	}
}

// Borrow converts a subslice of a Fixed cursor's window into a string
// without copying. Safety rests on the package-level aliasing contract:
// the backing slice is never mutated while borrowed strings are live,
// so the immutability Go assumes of string memory holds in practice.
// Never call it with bytes that a refillable window may overwrite.
func Borrow(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Keep returns b as a string the caller may hold for good — what
// attribute values must be, since a tag's list outlives its token:
// borrowed when b is input of the fixed backing (window or capture
// bytes), a copy in the cursor's value arena when it is decoded bytes
// or the backing is a reader.
func (c *Cursor) Keep(b []byte, input bool) string {
	if c.fixed && input {
		return Borrow(b)
	}
	return c.values.Own(Borrow(b))
}

// View returns b as the Text of the token being delivered. On the fixed
// backing that is Keep: tokens are immortal there. On the reader backing
// it is b itself, uncopied — window bytes, a capture or the caller's
// scratch — and valid only until the next pull, which begins with Expire.
func (c *Cursor) View(b []byte, input bool) string {
	if c.fixed {
		return c.Keep(b, input)
	}
	if poison {
		c.view = b
	}
	return Borrow(b)
}

// poison turns on the retention guard (internal/buffer's stale-handle
// precedent): under go test Expire overwrites the last View's bytes —
// consumed input or scratch, nothing reads them again — so a consumer
// that kept a view reads 0xDB every time, not stale text sometimes.
var poison = testing.Testing()

// Expire ends the life of the last View. Tokenizers call it at the top
// of Next and SkipSubtree; outside tests it is one predictable branch.
func (c *Cursor) Expire() {
	if poison && c.view != nil {
		for i := range c.view {
			c.view[i] = 0xDB
		}
		c.view = nil
	}
}
