package jsontok

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"gcx/internal/xmark"
)

func collectChunks(t *testing.T, input string, target int) []Chunk {
	t.Helper()
	sp := NewSplitter(strings.NewReader(input))
	if target > 0 {
		sp.SetTargetBytes(target)
	}
	var chunks []Chunk
	for {
		c, err := sp.Next()
		if err == io.EOF {
			return chunks
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		chunks = append(chunks, c)
	}
}

// TestSplitterReassembly: chunk bytes concatenate back to the input's
// records, each line intact.
func TestSplitterReassembly(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 100; i++ {
		in.WriteString(`{"i":` + strings.Repeat("9", i%7+1) + `}` + "\n")
	}
	chunks := collectChunks(t, in.String(), 64)
	if len(chunks) < 2 {
		t.Fatalf("want multiple chunks at a 64-byte target, got %d", len(chunks))
	}
	var re bytes.Buffer
	records := 0
	for i, c := range chunks {
		if c.Seq != i {
			t.Fatalf("chunk %d has Seq %d", i, c.Seq)
		}
		if c.Records <= 0 {
			t.Fatalf("chunk %d has %d records", i, c.Records)
		}
		records += c.Records
		re.Write(c.Data)
	}
	if re.String() != in.String() {
		t.Fatalf("reassembled bytes differ from input")
	}
	if records != 100 {
		t.Fatalf("records = %d, want 100", records)
	}
}

// TestSplitterKeepsLinesVerbatim: a chunk is the input's bytes as they
// are on both backings — blank lines stay, a missing trailing newline
// stays missing — and only lines with a non-whitespace byte count as
// records.
func TestSplitterKeepsLinesVerbatim(t *testing.T) {
	const in = "{\"a\":1}\n\n \t\r\n{\"b\":2}"
	for name, sp := range map[string]*Splitter{
		"bytes":  NewSplitterBytes([]byte(in)),
		"reader": NewSplitter(strings.NewReader(in)),
	} {
		c, err := sp.Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(c.Data) != in || c.Records != 2 {
			t.Fatalf("%s: chunk %q with %d records, want the input with 2", name, c.Data, c.Records)
		}
		if _, err := sp.Next(); err != io.EOF {
			t.Fatalf("%s: second Next = %v, want io.EOF", name, err)
		}
	}
}

// TestSplitterOversizedLine: a record longer than the bufio window and
// the chunk target still arrives whole.
func TestSplitterOversizedLine(t *testing.T) {
	big := `{"v":"` + strings.Repeat("x", 256<<10) + `"}`
	in := "{\"a\":1}\n" + big + "\n{\"b\":2}\n"
	chunks := collectChunks(t, in, 1024)
	var re bytes.Buffer
	for _, c := range chunks {
		re.Write(c.Data)
	}
	if re.String() != in {
		t.Fatal("oversized line mangled by splitter")
	}
	for _, c := range chunks {
		for _, line := range bytes.SplitAfter(c.Data, []byte("\n")) {
			if len(line) > 0 && line[len(line)-1] != '\n' {
				t.Fatal("chunk contains a partial line")
			}
		}
	}
}

func TestSplitterEmptyInput(t *testing.T) {
	for _, in := range []string{"", "\n\n", "   \n", " \t\r\n\r\n"} {
		if chunks := collectChunks(t, in, 0); len(chunks) != 0 {
			t.Fatalf("%q: got %d chunks, want 0", in, len(chunks))
		}
	}
}

// splitAll drains sp.
func splitAll(t testing.TB, sp *Splitter) []Chunk {
	t.Helper()
	var chunks []Chunk
	for {
		c, err := sp.Next()
		if err == io.EOF {
			return chunks
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		chunks = append(chunks, c)
	}
}

// FuzzNDJSONSplitter checks the splitter against its contract on
// arbitrary input and a chunk target of 1–256 bytes. The byte backing,
// a reader with a 16–63-byte window and a one-byte reader cut the same
// chunks. Every chunk is a verbatim slice of the input that starts at a
// line start, ends at a newline or at the end of input, and ends at the
// first line end at or past the target. Between chunks the input holds
// insignificant whitespace only. Records counts the lines holding a byte
// outside the tokenizer's whitespace class.
func FuzzNDJSONSplitter(f *testing.F) {
	for _, s := range []string{
		"{\"a\":1}\n{\"a\":2}\n",
		"{\"a\":1}\n\f\n{\"a\":2}\n",
		"{\"a\":1}\n\v\n{\"a\":2}",
		"{\"a\":1}\n \n{\"a\":2}\n",
		"{\"a\":1}\n\u0085\n{\"a\":2}\n",
		"\n\n \t\r\n{\"a\":\n\n\n2}\r\n \n",
		"",
		"\n",
		"x",
	} {
		f.Add([]byte(s), uint8(0), uint8(0))
		f.Add([]byte(s), uint8(6), uint8(37))
	}
	f.Fuzz(func(t *testing.T, in []byte, targetSeed, sizeSeed uint8) {
		target := 1 + int(targetSeed)
		open := func(sp *Splitter) *Splitter { sp.SetTargetBytes(target); return sp }
		want := splitAll(t, open(NewSplitterBytes(in)))

		small := NewSplitter(nil)
		small.cur.ResetReader(bytes.NewReader(in), 16+int(sizeSeed)%48)
		for name, sp := range map[string]*Splitter{
			"reader":   open(small),
			"one-byte": open(NewSplitter(iotest.OneByteReader(bytes.NewReader(in)))),
		} {
			got := splitAll(t, sp)
			if len(got) != len(want) {
				t.Fatalf("%s: %d chunks, bytes %d\ninput: %q", name, len(got), len(want), in)
			}
			for i, c := range got {
				if w := want[i]; c.Seq != w.Seq || c.Records != w.Records || !bytes.Equal(c.Data, w.Data) {
					t.Fatalf("%s: chunk %d = %d/%d/%q, bytes %d/%d/%q", name, i, c.Seq, c.Records, c.Data, w.Seq, w.Records, w.Data)
				}
			}
		}

		pos := 0
		for i, c := range want {
			// Whatever lies between pos and the chunk is whitespace the
			// splitter dropped, whole lines of it. The chunk's first
			// non-whitespace byte is the input's first one after pos,
			// which places the chunk.
			start := pos + firstContent(in[pos:]) - firstContent(c.Data)
			if start < pos || (start > pos && in[start-1] != '\n') {
				t.Fatalf("chunk %d %q does not start at a line at or after %d\ninput: %q", i, c.Data, pos, in)
			}
			end := start + len(c.Data)
			if c.Seq != i || end > len(in) || !bytes.Equal(in[start:end], c.Data) {
				t.Fatalf("chunk %d (seq %d) %q is not the input at %d\ninput: %q", i, c.Seq, c.Data, start, in)
			}
			lines := bytes.SplitAfter(c.Data, []byte("\n"))
			if last := lines[len(lines)-1]; len(last) == 0 {
				lines = lines[:len(lines)-1]
			} else if end != len(in) {
				t.Fatalf("chunk %d ends inside a line\ninput: %q", i, in)
			}
			if rest := len(c.Data) - len(lines[len(lines)-1]); rest >= target {
				t.Fatalf("chunk %d runs past a line end at %d ≥ target %d\ninput: %q", i, rest, target, in)
			}
			records := 0
			for _, l := range lines {
				if !isSpace(l) {
					records++
				}
			}
			if c.Records != records || records == 0 {
				t.Fatalf("chunk %d: Records = %d, %d lines with content\ninput: %q", i, c.Records, records, in)
			}
			pos = end
		}
		if !isSpace(in[pos:]) {
			t.Fatalf("input after the last chunk is not whitespace: %q\ninput: %q", in[pos:], in)
		}
	})
}

// firstContent is the index of b's first byte outside the tokenizer's
// whitespace class, len(b) if there is none.
func firstContent(b []byte) int {
	for i := range b {
		if !isSpace(b[i : i+1]) {
			return i
		}
	}
	return len(b)
}

// BenchmarkNDJSONSplitter is the splitter alone over 16 MiB of the
// generated bid log, on both backings: the serial stage of a sharded
// NDJSON run.
func BenchmarkNDJSONSplitter(b *testing.B) {
	var doc bytes.Buffer
	if _, err := xmark.GenerateNDJSON(&doc, xmark.Config{TargetBytes: 16 << 20, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	data := doc.Bytes()
	for _, backing := range []string{"bytes", "reader"} {
		b.Run(backing, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := NewSplitterBytes(data)
				if backing == "reader" {
					sp = NewSplitter(bytes.NewReader(data))
				}
				for {
					if _, err := sp.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
