package core

import (
	"errors"
	"strings"
	"testing"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// refSink is the reference the serializers are fuzzed against: the same
// output syntax (DESIGN.md §8) written one byte at a time into a string,
// with no buffer, no table and no fast path.
type refSink struct {
	json bool
	out  strings.Builder
	open []bool // JSON: whether each open element has a child yet
}

func (r *refSink) escape(s string, quot bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case r.json && c == '"':
			r.out.WriteString(`\"`)
		case r.json && c == '\\':
			r.out.WriteString(`\\`)
		case r.json && c == '\n':
			r.out.WriteString(`\n`)
		case r.json && c == '\r':
			r.out.WriteString(`\r`)
		case r.json && c == '\t':
			r.out.WriteString(`\t`)
		case r.json && c < 0x20:
			r.out.WriteString(`\u00`)
			r.out.WriteByte("0123456789abcdef"[c>>4])
			r.out.WriteByte("0123456789abcdef"[c&0xf])
		case !r.json && c == '<':
			r.out.WriteString("&lt;")
		case !r.json && c == '>':
			r.out.WriteString("&gt;")
		case !r.json && c == '&':
			r.out.WriteString("&amp;")
		case !r.json && quot && c == '"':
			r.out.WriteString("&quot;")
		default:
			r.out.WriteByte(c)
		}
	}
}

// sep and end are the JSON encoding's commas and newlines.
func (r *refSink) sep() {
	if n := len(r.open); n > 0 {
		if r.open[n-1] {
			r.out.WriteByte(',')
		}
		r.open[n-1] = true
	}
}

func (r *refSink) end() {
	if len(r.open) == 0 {
		r.out.WriteByte('\n')
	}
}

func (r *refSink) StartElement(name string, attrs []event.Attr) {
	if !r.json {
		r.out.WriteString("<" + name)
		for _, a := range attrs {
			r.out.WriteString(" " + a.Name + `="`)
			r.escape(a.Value, true)
			r.out.WriteByte('"')
		}
		r.out.WriteByte('>')
		return
	}
	r.sep()
	r.out.WriteString(`{"`)
	r.escape(name, false)
	r.out.WriteString(`":[`)
	r.open = append(r.open, false)
	for _, a := range attrs {
		r.sep()
		r.out.WriteString(`{"@`)
		r.escape(a.Name, false)
		r.out.WriteString(`":["`)
		r.escape(a.Value, false)
		r.out.WriteString(`"]}`)
	}
}

func (r *refSink) EndElement(name string) {
	if !r.json {
		r.out.WriteString("</" + name + ">")
		return
	}
	r.out.WriteString("]}")
	r.open = r.open[:len(r.open)-1]
	r.end()
}

func (r *refSink) Text(text string) {
	if !r.json {
		r.escape(text, false)
		return
	}
	r.sep()
	r.out.WriteByte('"')
	r.escape(text, false)
	r.out.WriteByte('"')
	r.end()
}

// tee sends each event to the sink under test and to the reference.
type tee struct {
	sink event.Sink
	ref  *refSink
}

func (t tee) StartElement(name string, attrs []event.Attr) {
	t.sink.StartElement(name, attrs)
	t.ref.StartElement(name, attrs)
}

func (t tee) EndElement(name string) {
	t.sink.EndElement(name)
	t.ref.EndElement(name)
}

func (t tee) Text(text string) {
	t.sink.Text(text)
	t.ref.Text(text)
}

// failingWriter fails its failAt-th Write (0: never), having taken half
// of that write's bytes.
type failingWriter struct {
	got    strings.Builder
	calls  int
	failAt int
}

var errWriterFailed = errors.New("writer failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.failAt {
		w.got.Write(p[:len(p)/2])
		return len(p) / 2, errWriterFailed
	}
	w.got.Write(p)
	return len(p), nil
}

// FuzzSerializer drives the XML and the JSON sink with arbitrary names,
// attribute lists and text against refSink. filler sizes one leading
// text so that what follows straddles the 64 KiB write buffer or, past
// it, is written through; failAt makes the underlying writer fail on
// its n-th call. Without a failure the output and BytesWritten match
// the reference exactly. With one, that error comes back from every
// Flush, the writer is not called again, what it received is a prefix
// of the reference, and BytesWritten lies between the two.
func FuzzSerializer(f *testing.F) {
	for _, s := range []string{
		"a\x00text\x00b\x00k\x00v<\"&>\x00\x00t2",
		"r\x00<>&\"'\\\n\r\t\x01\x1f\x7f\xff\x00\x00",
		"\x00\x00\x00",
		"name\x00" + strings.Repeat("x&", 40) + "\x00\x00tail",
	} {
		for _, filler := range []uint32{0, cursor.WriterSize - 3, cursor.WriterSize, 3*cursor.WriterSize + 1} {
			f.Add(s, filler, uint8(0), false)
			f.Add(s, filler, uint8(2), true)
		}
	}
	f.Fuzz(func(t *testing.T, script string, filler uint32, failAt uint8, json bool) {
		format := FormatXML
		if json {
			format = FormatNDJSON
		}
		w := &failingWriter{failAt: int(failAt)}
		sink, err := NewSink(format, w)
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Release()
		ref := &refSink{json: json}

		// The script's NUL-separated pieces become, by position, an
		// element name, its text, the name and value of an attribute of
		// the next element, and so on; every element opened is closed.
		both := tee{sink, ref}
		both.Text(strings.Repeat("f", int(filler%(4*cursor.WriterSize))))
		var open []string
		var attrs []event.Attr
		for i, p := range strings.Split(script, "\x00") {
			switch i % 4 {
			case 0:
				both.StartElement(p, attrs)
				open, attrs = append(open, p), nil
			case 1:
				both.Text(p)
			case 2:
				attrs = append(attrs, event.Attr{Name: p})
			case 3:
				attrs[len(attrs)-1].Value = p
				if len(open) > 1 {
					both.EndElement(open[len(open)-1])
					open = open[:len(open)-1]
				}
			}
		}
		for i := len(open) - 1; i >= 0; i-- {
			both.EndElement(open[i])
		}
		want := ref.out.String()

		err = sink.Flush()
		got, written := w.got.String(), sink.BytesWritten()
		if w.failAt == 0 || w.calls < w.failAt {
			if err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if got != want {
				t.Fatalf("output differs from the reference\n got %.200q\nwant %.200q", got, want)
			}
			if written != int64(len(want)) {
				t.Fatalf("BytesWritten = %d, output is %d bytes", written, len(want))
			}
			return
		}
		if !errors.Is(err, errWriterFailed) {
			t.Fatalf("Flush = %v after the writer failed", err)
		}
		if again := sink.Flush(); again != err {
			t.Fatalf("second Flush = %v, first %v", again, err)
		}
		if w.calls != w.failAt {
			t.Fatalf("writer called %d times, failed on call %d", w.calls, w.failAt)
		}
		if !strings.HasPrefix(want, got) {
			t.Fatalf("the writer received bytes that are not a prefix of the reference")
		}
		if written < int64(len(got)) || written > int64(len(want)) {
			t.Fatalf("BytesWritten = %d with %d bytes received of %d", written, len(got), len(want))
		}
	})
}
