package cursor

import "strings"

// Arena copies short values — attribute values, decoded text, the text
// the buffer keeps — into shared blocks, so that keeping a value costs
// an allocation per block instead of one per value. It is append-only:
// a string it returned is never written again, and a full block is left
// to the strings that point into it (the attrChunk rule, DESIGN.md
// §12), so the collector frees a block once the last value in it is
// dropped — until then one live value keeps its whole block. The zero
// value is ready and allocates nothing before the first Own.
type Arena struct {
	block []byte
}

const (
	// arenaBlock is the size of one block.
	arenaBlock = 4 << 10
	// arenaLarge is the length above which a value gets an allocation of
	// its own: starting a fresh block for it would waste up to that much
	// of the current one.
	arenaLarge = arenaBlock / 4
)

// Own returns a copy of s that the caller may keep for good. Bytes go
// in as Own(Borrow(b)): the view lives only until the copy is made.
func (a *Arena) Own(s string) string {
	switch {
	case len(s) == 0:
		return ""
	case len(s) > arenaLarge:
		return strings.Clone(s)
	case len(s) > cap(a.block)-len(a.block):
		a.block = make([]byte, 0, arenaBlock)
	}
	at := len(a.block)
	a.block = append(a.block, s...)
	return Borrow(a.block[at:])
}
