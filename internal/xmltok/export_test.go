package xmltok

import "io"

// NewTokenizerWindow is NewTokenizer with a reader window of size bytes
// instead of the 64 KiB default: a window of a few dozen bytes puts a
// refill inside nearly every construct, which keeps the tokenizer on
// its careful path.
func NewTokenizerWindow(r io.Reader, size int) *Tokenizer {
	t := NewTokenizer(r)
	t.cur.ResetReader(r, size)
	return t
}

// For the parity test in the external test package (it imports
// internal/xmark, which reaches this package through internal/schema).
var (
	TokenPathEdges = tokenPathEdges
	SameToken      = sameToken
)
