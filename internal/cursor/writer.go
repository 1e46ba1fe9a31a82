package cursor

import (
	"io"
	"unsafe"
)

// Writer is the output-side counterpart of Cursor: the append-based
// write buffer both serializers (internal/xmltok, internal/jsontok)
// render through. A write that fits is one append onto the buffer; one
// that does not flushes the buffer first, and a string as large as the
// buffer itself is then handed to the underlying writer directly
// instead of being copied through. The zero value is unusable until
// Reset.
//
// Error contract: the first error the underlying writer returns is
// kept, reported by every Flush, and ends the output — the
// underlying writer is not called again and later writes are dropped.
// Written counts every byte accepted before that point, buffered or
// handed over, so on an error-free run it is exactly the length of the
// output however the writes fell across flushes.
type Writer struct {
	w       io.Writer
	buf     []byte
	flushed int64 // bytes handed to w so far
	err     error
}

// WriterSize is the write buffer's capacity, matching the cursor's
// window.
const WriterSize = DefaultSize

// Reset re-arms the writer over w, dropping buffered output and any
// error, and keeps the buffer for reuse (pooling).
func (o *Writer) Reset(w io.Writer) {
	if o.buf == nil {
		o.buf = make([]byte, 0, WriterSize)
	}
	o.w, o.buf, o.flushed, o.err = w, o.buf[:0], 0, nil
}

// Written reports the number of bytes accepted so far, buffered output
// included.
func (o *Writer) Written() int64 {
	if o.err != nil {
		return o.flushed
	}
	return o.flushed + int64(len(o.buf))
}

// Flush writes buffered output through and returns the first error
// seen on any write.
func (o *Writer) Flush() error {
	if len(o.buf) > 0 {
		o.write(o.buf)
		o.buf = o.buf[:0]
	}
	return o.err
}

// write hands p to the underlying writer unless an error has already
// ended the output.
func (o *Writer) write(p []byte) {
	if o.err != nil {
		return
	}
	o.flushed += int64(len(p))
	if n, err := o.w.Write(p); err != nil {
		o.err = err
	} else if n < len(p) {
		o.err = io.ErrShortWrite
	}
}

// WriteString appends s to the output.
func (o *Writer) WriteString(s string) {
	if len(s) > cap(o.buf)-len(o.buf) {
		o.spill(s)
		return
	}
	o.buf = append(o.buf, s...)
}

// Write3 appends a, b and c — a tag's opening, its name and its closing
// — with one capacity check.
func (o *Writer) Write3(a, b, c string) {
	if len(a)+len(b)+len(c) > cap(o.buf)-len(o.buf) {
		o.spill(a)
		o.WriteString(b)
		o.WriteString(c)
		return
	}
	o.buf = append(append(append(o.buf, a...), b...), c...)
}

// spill is WriteString for a string the buffer has no room for.
func (o *Writer) spill(s string) {
	o.Flush()
	if len(s) < cap(o.buf) {
		o.buf = append(o.buf, s...)
		return
	}
	// Writers must not modify or retain what they are given (io.Writer),
	// so viewing the string's bytes is as safe as copying them.
	o.write(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// Escapes is one output syntax's escaping rule: the replacement for
// each byte that cannot be written as itself. Build it with NewEscapes.
type Escapes struct {
	// special is the scan table, kept apart from the replacements so the
	// search for the next escapable byte reads one byte per input byte.
	special [256]bool
	repl    [256]string
}

// NewEscapes returns the rule that replaces each key of repl with its
// value and passes every other byte through.
func NewEscapes(repl map[byte]string) *Escapes {
	e := new(Escapes)
	for c, r := range repl {
		e.special[c], e.repl[c] = true, r
	}
	return e
}

// WriteEscaped appends s with e applied: each clean run between two
// escapable bytes is copied in one piece.
func (o *Writer) WriteEscaped(s string, e *Escapes) {
	for {
		i := 0
		for i < len(s) && !e.special[s[i]] {
			i++
		}
		if i == len(s) {
			o.WriteString(s)
			return
		}
		o.WriteString(s[:i])
		o.WriteString(e.repl[s[i]])
		s = s[i+1:]
	}
}
