package cursor

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

// drain consumes the cursor byte by byte and returns everything read.
func drain(t *testing.T, c *Cursor) []byte {
	t.Helper()
	var out []byte
	for {
		b, err := c.Byte()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Byte: %v", err)
		}
		out = append(out, b)
	}
}

func TestFixedBasics(t *testing.T) {
	data := []byte("hello")
	c := NewBytes(data)
	if !c.Fixed() {
		t.Fatal("NewBytes cursor not Fixed")
	}
	if got := drain(t, c); !bytes.Equal(got, data) {
		t.Fatalf("drained %q, want %q", got, data)
	}
	if c.Offset() != int64(len(data)) {
		t.Fatalf("Offset = %d, want %d", c.Offset(), len(data))
	}
	// EOF is sticky.
	if _, err := c.Byte(); err != io.EOF {
		t.Fatalf("Byte at EOF: %v, want io.EOF", err)
	}
}

func TestReaderBasics(t *testing.T) {
	data := []byte("the quick brown fox")
	for _, size := range []int{0, 16, 17, 1 << 10} {
		c := NewReader(bytes.NewReader(data), size)
		if c.Fixed() {
			t.Fatal("reader cursor reports Fixed")
		}
		if got := drain(t, c); !bytes.Equal(got, data) {
			t.Fatalf("size %d: drained %q, want %q", size, got, data)
		}
		if c.Offset() != int64(len(data)) {
			t.Fatalf("size %d: Offset = %d, want %d", size, c.Offset(), len(data))
		}
	}
}

// TestReaderOneByteReads forces a refill on every byte, exercising the
// compaction/history machinery as hard as possible.
func TestReaderOneByteReads(t *testing.T) {
	data := []byte("<a><b>text</b></a>")
	c := NewReader(iotest.OneByteReader(bytes.NewReader(data)), 16)
	if got := drain(t, c); !bytes.Equal(got, data) {
		t.Fatalf("drained %q, want %q", got, data)
	}
}

func TestUnreadAcrossRefill(t *testing.T) {
	data := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	c := NewReader(iotest.OneByteReader(bytes.NewReader(data)), 16)
	var out []byte
	for i := 0; ; i++ {
		b, err := c.Byte()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Byte: %v", err)
		}
		// Unread and re-read every byte: valid even immediately after a
		// refill because one byte of history is retained.
		c.Unread()
		b2, err := c.Byte()
		if err != nil || b2 != b {
			t.Fatalf("reread byte %d: %q %v, want %q", i, b2, err, b)
		}
		out = append(out, b)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("drained %q, want %q", out, data)
	}
}

func TestOffsetTracksAcrossRefill(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 100)
	c := NewReader(bytes.NewReader(data), 16)
	for i := range data {
		if c.Offset() != int64(i) {
			t.Fatalf("before byte %d: Offset = %d", i, c.Offset())
		}
		if _, err := c.Byte(); err != nil {
			t.Fatalf("Byte %d: %v", i, err)
		}
	}
	if c.Offset() != int64(len(data)) {
		t.Fatalf("final Offset = %d", c.Offset())
	}
}

func TestWindowAdvance(t *testing.T) {
	data := []byte("hello world")
	c := NewBytes(data)
	if err := c.Fill(); err != nil {
		t.Fatal(err)
	}
	w := c.Window()
	if !bytes.Equal(w, data) {
		t.Fatalf("Window = %q", w)
	}
	c.Advance(6)
	if got := c.Window(); string(got) != "world" {
		t.Fatalf("after Advance: %q", got)
	}
	if c.Offset() != 6 {
		t.Fatalf("Offset = %d", c.Offset())
	}
}

func TestPeek(t *testing.T) {
	data := []byte("0123456789abcdef0123456789")
	c := NewReader(iotest.OneByteReader(bytes.NewReader(data)), 16)
	p, err := c.Peek(2)
	if err != nil || string(p) != "01" {
		t.Fatalf("Peek(2) = %q, %v", p, err)
	}
	// Peek does not consume.
	if b, _ := c.Byte(); b != '0' {
		t.Fatalf("Byte after Peek = %q", b)
	}
	// Peek near the end returns the remainder with EOF.
	for i := 0; i < len(data)-2; i++ {
		if _, err := c.Byte(); err != nil {
			t.Fatal(err)
		}
	}
	p, err = c.Peek(2)
	if err != io.EOF || string(p) != "9" {
		t.Fatalf("Peek(2) at tail = %q, %v", p, err)
	}
}

func TestSkipPast(t *testing.T) {
	data := []byte("aaaa<bbbb<cccc")
	for _, mk := range []func() *Cursor{
		func() *Cursor { return NewBytes(data) },
		func() *Cursor { return NewReader(iotest.OneByteReader(bytes.NewReader(data)), 16) },
	} {
		c := mk()
		n, err := c.SkipPast('<')
		if err != nil || n != 5 {
			t.Fatalf("SkipPast = %d, %v", n, err)
		}
		if b, _ := c.Byte(); b != 'b' {
			t.Fatalf("after SkipPast: %q", b)
		}
		c.Unread()
		n, err = c.SkipPast('<')
		if err != nil || n != 5 {
			t.Fatalf("second SkipPast = %d, %v", n, err)
		}
		// Delimiter absent: consume to EOF.
		n, err = c.SkipPast('<')
		if err != io.EOF || n != 4 {
			t.Fatalf("tail SkipPast = %d, %v", n, err)
		}
	}
}

func TestReadError(t *testing.T) {
	boom := errors.New("boom")
	c := NewReader(io.MultiReader(strings.NewReader("ab"), iotest.ErrReader(boom)), 16)
	if b, err := c.Byte(); b != 'a' || err != nil {
		t.Fatalf("first Byte: %q, %v", b, err)
	}
	if b, err := c.Byte(); b != 'b' || err != nil {
		t.Fatalf("second Byte: %q, %v", b, err)
	}
	if _, err := c.Byte(); err != boom {
		t.Fatalf("Byte after error: %v, want boom", err)
	}
	if c.IOErr() != boom {
		t.Fatalf("IOErr = %v, want boom", c.IOErr())
	}
	// Sticky.
	if _, err := c.Byte(); err != boom {
		t.Fatalf("sticky error: %v", err)
	}
}

func TestNoProgressReader(t *testing.T) {
	// A reader that returns (0, nil) forever must not hang.
	c := NewReader(zeroReader{}, 16)
	if _, err := c.Byte(); err != io.ErrNoProgress {
		t.Fatalf("Byte = %v, want ErrNoProgress", err)
	}
	if c.IOErr() != io.ErrNoProgress {
		t.Fatalf("IOErr = %v", c.IOErr())
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) { return 0, nil }

func TestResetReuse(t *testing.T) {
	c := NewReader(strings.NewReader("first"), 64)
	if got := drain(t, c); string(got) != "first" {
		t.Fatalf("first drain: %q", got)
	}
	c.ResetBytes([]byte("second"))
	if !c.Fixed() {
		t.Fatal("ResetBytes did not set Fixed")
	}
	if got := drain(t, c); string(got) != "second" {
		t.Fatalf("second drain: %q", got)
	}
	c.ResetReader(strings.NewReader("third"), 64)
	if c.Fixed() {
		t.Fatal("ResetReader left Fixed set")
	}
	if got := drain(t, c); string(got) != "third" {
		t.Fatalf("third drain: %q", got)
	}
	if c.Offset() != 5 {
		t.Fatalf("Offset after reset = %d", c.Offset())
	}
}

func TestBorrow(t *testing.T) {
	data := []byte("borrowed")
	if got := Borrow(data[:0]); got != "" {
		t.Fatalf("Borrow(empty) = %q", got)
	}
	got := Borrow(data[2:6])
	if got != "rrow" {
		t.Fatalf("Borrow = %q", got)
	}
}

// TestFixedWindowStable pins the zero-copy property: windows of a fixed
// cursor alias the input slice directly.
func TestFixedWindowStable(t *testing.T) {
	data := []byte("stable")
	c := NewBytes(data)
	w := c.Window()
	if &w[0] != &data[0] {
		t.Fatal("fixed window does not alias input")
	}
}

// TestArena pins the arena's three rules: values of a block share its
// allocation, a returned string is never written again, and nothing is
// allocated before the first Own.
func TestArena(t *testing.T) {
	var a Arena
	if a.Own("") != "" || a.block != nil {
		t.Fatal("an empty value allocated a block")
	}
	src := []byte("0123456789")
	var got []string
	for i := 0; i < 3*arenaBlock/len(src); i++ {
		src[0] = byte('a' + i%26)
		got = append(got, a.Own(Borrow(src)))
	}
	for i, s := range got {
		if want := string(rune('a'+i%26)) + "123456789"; s != want {
			t.Fatalf("value %d reads %q after later Owns, want %q", i, s, want)
		}
	}
	large := strings.Repeat("x", arenaLarge+1)
	before := len(a.block)
	if a.Own(large) != large || len(a.block) != before {
		t.Error("a large value went into the shared block")
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < arenaBlock/len(src); i++ {
			a.Own(Borrow(src))
		}
	}); n != 1 {
		t.Errorf("one block's worth of values made %.0f allocations, want 1", n)
	}
}

// TestKeepViewExpire states who may hold what for how long: Keep is for
// good on both backings, View is for good on the fixed one and dies at
// Expire on the reader one — visibly, under go test.
func TestKeepViewExpire(t *testing.T) {
	input := []byte("input bytes")
	scratch := []byte("decoded")

	c := NewBytes(input)
	if s := c.View(input[:5], true); unsafe.StringData(s) != &input[0] {
		t.Error("fixed backing: a view of input was copied")
	}
	v := c.View(scratch, false)
	c.Expire()
	scratch[0] = 'X'
	if v != "decoded" {
		t.Errorf("fixed backing: a view of scratch reads %q after Expire", v)
	}

	scratch = []byte("decoded")
	c = NewReader(bytes.NewReader(input), 0)
	w, _ := c.Peek(5)
	kept, view := c.Keep(w, true), c.View(w, true)
	if unsafe.StringData(view) != &w[0] {
		t.Error("reader backing: a view of the window was copied")
	}
	c.Expire()
	if kept != "input" || view != "\xdb\xdb\xdb\xdb\xdb" {
		t.Errorf("reader backing after Expire: kept %q, view %q", kept, view)
	}
	c.Expire() // nothing left to expire
	if k := c.Keep(scratch, false); k != "decoded" {
		t.Errorf("Keep(scratch) = %q", k)
	}
}

// TestResetDropsLargeSpill is the cursor's part of the pooled-scratch
// ceiling: a capture that outgrew MaxScratch across refills is not
// carried into the pool by the ResetBytes(nil) of a Release.
func TestResetDropsLargeSpill(t *testing.T) {
	c := NewReader(strings.NewReader(strings.Repeat("x", MaxScratch+3*DefaultSize)), 0)
	c.Mark()
	for c.Fill() == nil {
		c.Advance(len(c.Window()))
	}
	if n := len(c.Take()); n != MaxScratch+3*DefaultSize {
		t.Fatalf("captured %d bytes", n)
	}
	c.ResetBytes(nil)
	if cap(c.held) != 0 {
		t.Errorf("a %d-byte spill survived the reset", cap(c.held))
	}
}
