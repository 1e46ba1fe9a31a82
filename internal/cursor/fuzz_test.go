package cursor

import (
	"bytes"
	"testing"
)

// FuzzCursor drives a slice-backed cursor and a reader-backed cursor
// (with a deliberately tiny window, so refill boundaries land inside
// every construct) over the same input through an arbitrary operation
// sequence: both must return identical bytes, identical errors and
// identical offsets at every step. This is the parity the tokenizers'
// single-code-path design rests on (DESIGN.md §12): everything the
// []byte fast path may observe, the refilling path observes too. The
// op set includes Mark and Take, so a mark that spans one or more
// refills, an Unread after a marked refill and an empty take are all
// compared across the backings.
func FuzzCursor(f *testing.F) {
	f.Add([]byte("<a>hello world</a>"), []byte{0, 1, 2, 3, 4, 5}, uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), []byte{1, '<', 1, '>', 0, 0, 3, 3}, uint8(1))
	f.Add([]byte(""), []byte{0, 2, 3}, uint8(7))
	// Window-boundary seeds: the delimiter sits exactly at/around the
	// 16-byte minimum window edge.
	f.Add([]byte("aaaaaaaaaaaaaaa<b"), []byte{1, '<', 0, 0}, uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaa<b"), []byte{1, '<', 4, 0}, uint8(0))
	// Mark/Take seeds: an empty take; a mark held across SkipPast over
	// several 16-byte windows; a marked refill followed by Unread.
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), []byte{6, 7, 0, 6, 1, 'z', 7}, uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz<tail"), []byte{0, 6, 1, '<', 0, 7}, uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), []byte{0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 7}, uint8(0))
	f.Fuzz(func(t *testing.T, data, ops []byte, sizeSeed uint8) {
		size := minSize + int(sizeSeed)%48
		a := NewBytes(data)
		b := NewReader(bytes.NewReader(data), size)
		sameErr := func(e1, e2 error) bool {
			if (e1 == nil) != (e2 == nil) {
				return false
			}
			return e1 == nil || e1.Error() == e2.Error()
		}
		canUnread := false
		markedAt := int64(-1) // offset of the pending Mark, -1 for none
		for i, op := range ops {
			switch op % 8 {
			case 0: // Byte
				b1, e1 := a.Byte()
				b2, e2 := b.Byte()
				if b1 != b2 || !sameErr(e1, e2) {
					t.Fatalf("op %d Byte: bytes %q vs %q, errs %v vs %v", i, b1, b2, e1, e2)
				}
				canUnread = e1 == nil
			case 1: // SkipPast (delimiter = next op byte, consumed blind)
				n1, e1 := a.SkipPast(op)
				n2, e2 := b.SkipPast(op)
				if n1 != n2 || !sameErr(e1, e2) {
					t.Fatalf("op %d SkipPast(%q): n %d vs %d, errs %v vs %v", i, op, n1, n2, e1, e2)
				}
				canUnread = false
			case 2: // Peek (small lookahead, the tokenizers' maximum is 2)
				n := int(op%3) + 1
				p1, e1 := a.Peek(n)
				p2, e2 := b.Peek(n)
				if !bytes.Equal(p1, p2) || !sameErr(e1, e2) {
					t.Fatalf("op %d Peek(%d): %q vs %q, errs %v vs %v", i, n, p1, p2, e1, e2)
				}
				canUnread = false
			case 3: // Fill + Window prefix + Advance(1)
				e1 := a.Fill()
				e2 := b.Fill()
				if !sameErr(e1, e2) {
					t.Fatalf("op %d Fill: errs %v vs %v", i, e1, e2)
				}
				if e1 == nil {
					w1, w2 := a.Window(), b.Window()
					m := min(len(w1), len(w2))
					if m == 0 || !bytes.Equal(w1[:m], w2[:m]) {
						t.Fatalf("op %d Window prefix mismatch: %q vs %q", i, w1, w2)
					}
					a.Advance(1)
					b.Advance(1)
					canUnread = true
				}
			case 4: // Unread (valid only right after a consuming step)
				if canUnread {
					a.Unread()
					b.Unread()
					canUnread = false
				}
			case 5: // Fixed-path Borrow vs copy agreement on the next byte
				if a.Fill() == nil {
					w := a.Window()
					if Borrow(w[:1]) != string(w[:1]) {
						t.Fatalf("op %d Borrow mismatch", i)
					}
				}
				canUnread = false
			case 6: // Mark (Unread must not step back over it)
				a.Mark()
				b.Mark()
				markedAt = a.Offset()
				canUnread = false
			case 7: // Take (valid only after a Mark)
				if markedAt >= 0 {
					want := data[markedAt:a.Offset()]
					if t1, t2 := a.Take(), b.Take(); !bytes.Equal(t1, want) || !bytes.Equal(t2, want) {
						t.Fatalf("op %d Take: %q vs %q, want %q", i, t1, t2, want)
					}
					markedAt = -1
				}
			}
			if a.Offset() != b.Offset() {
				t.Fatalf("op %d: offsets diverged: %d vs %d", i, a.Offset(), b.Offset())
			}
		}
	})
}
