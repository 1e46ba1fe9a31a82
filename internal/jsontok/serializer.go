package jsontok

import (
	"io"
	"sync"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// Serializer renders result events as JSON lines — the single output
// path of all engines when the run's format is JSON/NDJSON, so GCX, the
// projection-only engine and the DOM baseline produce byte-identical
// results for the differential tests, and sharded workers' outputs
// concatenate into exactly the sequential serialization.
//
// Encoding (DESIGN.md §8): an element named n renders as {"n":[ ... ]}
// with its children — text as JSON strings, child elements as nested
// single-key objects — comma-separated inside the array; attributes of
// constructed elements render as leading {"@name":["value"]} members.
// Every top-level item (element or bare text) is followed by a newline,
// so a query over NDJSON yields NDJSON. No serializer state crosses
// top-level items, which is what makes sharded output concatenation
// byte-identical to the sequential run. Output goes through the shared
// append-based write buffer (cursor.Writer, DESIGN.md §12), which owns
// the byte count and the error contract.
type Serializer struct {
	out cursor.Writer
	// open tracks the open-element nesting; each entry is true once the
	// element has at least one emitted child (comma placement).
	open     []bool
	topItems int64
	released bool
}

// serializerPool recycles Serializers and their 64 KiB write buffers
// across executions.
var serializerPool = sync.Pool{New: func() any { return new(Serializer) }}

// NewSerializer returns a Serializer writing to w. Serializers come
// from an internal pool; callers that finish with one may hand its
// buffer back via Release.
func NewSerializer(w io.Writer) *Serializer {
	s := serializerPool.Get().(*Serializer)
	s.out.Reset(w)
	s.open = s.open[:0]
	s.topItems = 0
	s.released = false
	return s
}

// Release returns the serializer's buffer to the pool, discarding any
// unflushed output. The serializer must not be used afterwards;
// counters read before Release stay valid. Release is idempotent.
func (s *Serializer) Release() {
	if s.released {
		return
	}
	s.released = true
	s.out.Reset(nil) // drop the writer reference
	serializerPool.Put(s)
}

// BytesWritten reports the number of bytes emitted so far (pre-flush
// buffering included).
func (s *Serializer) BytesWritten() int64 { return s.out.Written() }

// sep emits the separator a new item needs at the current position: a
// comma between siblings inside an element, nothing before the first
// child or between top-level items (those are newline-terminated
// instead, by close).
func (s *Serializer) sep() {
	if n := len(s.open); n > 0 {
		if s.open[n-1] {
			s.out.WriteString(",")
		}
		s.open[n-1] = true
	}
}

// close terminates a just-completed top-level item with its newline.
func (s *Serializer) close() {
	if len(s.open) == 0 {
		s.topItems++
		s.out.WriteString("\n")
	}
}

// StartElement opens an element: {"name":[ with attributes, if any, as
// leading {"@attr":["value"]} members.
func (s *Serializer) StartElement(name string, attrs []event.Attr) {
	s.sep()
	s.out.WriteString(`{"`)
	s.out.WriteEscaped(name, stringEscapes)
	s.out.WriteString(`":[`)
	s.open = append(s.open, false)
	for _, a := range attrs {
		s.sep()
		s.out.WriteString(`{"@`)
		s.out.WriteEscaped(a.Name, stringEscapes)
		s.out.WriteString(`":[`)
		s.writeQuoted(a.Value)
		s.out.WriteString(`]}`)
	}
}

// EndElement closes the innermost open element.
func (s *Serializer) EndElement(name string) {
	s.out.WriteString(`]}`)
	if n := len(s.open); n > 0 {
		s.open = s.open[:n-1]
	}
	s.close()
}

// Text writes character data as a JSON string.
func (s *Serializer) Text(text string) {
	s.sep()
	s.writeQuoted(text)
	s.close()
}

// Flush writes any buffered output to the underlying writer and reports
// the first error seen on any operation.
func (s *Serializer) Flush() error { return s.out.Flush() }

// stringEscapes is the escaping rule inside a JSON string literal: the
// two-character escapes where JSON has one, \u00XX for the other
// control characters.
var stringEscapes = func() *cursor.Escapes {
	const hexDigits = "0123456789abcdef"
	repl := map[byte]string{'"': `\"`, '\\': `\\`, '\n': `\n`, '\r': `\r`, '\t': `\t`}
	for c := byte(0); c < 0x20; c++ {
		if _, ok := repl[c]; !ok {
			repl[c] = `\u00` + string([]byte{hexDigits[c>>4], hexDigits[c&0xf]})
		}
	}
	return cursor.NewEscapes(repl)
}()

// writeQuoted writes str as a JSON string literal.
func (s *Serializer) writeQuoted(str string) {
	s.out.WriteString(`"`)
	s.out.WriteEscaped(str, stringEscapes)
	s.out.WriteString(`"`)
}
