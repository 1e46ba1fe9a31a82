package jsontok

import "io"

// NewTokenizerWindow is NewTokenizer with a reader window of size bytes
// instead of the 64 KiB default, for the external test package: a
// window of a few dozen bytes puts a refill inside nearly every member.
func NewTokenizerWindow(r io.Reader, size int) *Tokenizer {
	t := NewTokenizer(r)
	t.cur.ResetReader(r, size)
	return t
}
