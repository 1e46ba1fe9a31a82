package xmltok

import (
	"io"
	"strings"
	"sync"

	"gcx/internal/cursor"
)

// Serializer writes Tokens back out as XML. It is the single output path
// of the engines, so that GCX, the projection-only engine and the DOM
// baseline produce byte-identical results for the differential tests.
// Output goes through the shared append-based write buffer
// (cursor.Writer, DESIGN.md §12), which owns the byte count and the
// error contract.
type Serializer struct {
	out      cursor.Writer
	released bool
}

// serializerPool recycles Serializers and their 64 KiB write buffers
// across executions.
var serializerPool = sync.Pool{New: func() any { return new(Serializer) }}

// NewSerializer returns a Serializer writing to w. Serializers come from
// an internal pool; callers that finish with one may hand its buffer
// back via Release.
func NewSerializer(w io.Writer) *Serializer {
	s := serializerPool.Get().(*Serializer)
	s.out.Reset(w)
	s.released = false
	return s
}

// Release returns the serializer's buffer to the pool, discarding any
// unflushed output. The serializer must not be used afterwards; counters
// read before Release stay valid. Release is idempotent.
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

// textEscapes and attrEscapes are the escaping rules of character data
// and of double-quoted attribute values.
var (
	textEscapes = cursor.NewEscapes(map[byte]string{'<': "&lt;", '>': "&gt;", '&': "&amp;"})
	attrEscapes = cursor.NewEscapes(map[byte]string{'<': "&lt;", '>': "&gt;", '&': "&amp;", '"': "&quot;"})
)

// StartElement writes an opening tag with the given attributes.
func (s *Serializer) StartElement(name string, attrs []Attr) {
	if len(attrs) == 0 {
		s.out.Write3("<", name, ">")
		return
	}
	s.out.Write3("<", name, "")
	for _, a := range attrs {
		s.out.Write3(" ", a.Name, `="`)
		s.out.WriteEscaped(a.Value, attrEscapes)
		s.out.WriteString(`"`)
	}
	s.out.WriteString(">")
}

// EndElement writes the closing tag for name.
func (s *Serializer) EndElement(name string) {
	s.out.Write3("</", name, ">")
}

// Text writes escaped character data.
func (s *Serializer) Text(text string) {
	s.out.WriteEscaped(text, textEscapes)
}

// Token writes an arbitrary token.
func (s *Serializer) Token(t Token) {
	switch t.Kind {
	case StartElement:
		s.StartElement(t.Name, t.Attrs)
	case EndElement:
		s.EndElement(t.Name)
	case Text:
		s.Text(t.Text)
	}
}

// Flush writes any buffered output to the underlying writer and reports
// the first error seen on any operation.
func (s *Serializer) Flush() error { return s.out.Flush() }

// EscapeText returns text with the XML character-data escapes applied.
// It is used by components that build strings rather than streams.
func EscapeText(text string) string {
	if !strings.ContainsAny(text, "<>&") {
		return text
	}
	var b strings.Builder
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		default:
			b.WriteByte(text[i])
		}
	}
	return b.String()
}
