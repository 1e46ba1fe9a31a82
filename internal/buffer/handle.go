package buffer

import "testing"

// poison turns on the stale-reference checks. Purged node structs are
// reused (Buffer.free), so a reference that outlives its node's purge
// would silently read a later tenant of the same memory. Under `go
// test` — in this package and in every package whose tests drive the
// engine — each entry point below asserts that the node it was handed
// is still linked, and each Handle dereference asserts that the node's
// generation is the one the holder saw. Outside tests the checks
// compile to one predictable branch.
var poison = testing.Testing()

// assertLive panics under go test when n has been purged.
func (n *Node) assertLive() {
	if poison && n.unlinked {
		panic("buffer: stale reference to a purged node")
	}
}

// Handle is a node reference that remembers the node's generation. The
// holders whose references live across purges use it: variable bindings
// and projection frames, which are pinned and merely assert, and queued
// sign-offs, which are not pinned and ask Live before they run.
type Handle struct {
	n   *Node
	gen uint32
}

// Hold returns a handle on n. The zero Handle stands for "no node".
func Hold(n *Node) Handle { return Handle{n: n, gen: n.gen} }

// Live reports whether the node the handle was taken on is still in the
// buffer: not purged, and not purged-and-reused either.
func (h Handle) Live() bool { return h.n != nil && h.n.gen == h.gen }

// Node returns the referenced node, or nil for the zero Handle. Under
// go test it panics when the node was purged since Hold — the holder
// failed to keep it pinned.
func (h Handle) Node() *Node {
	if poison && h.n != nil && h.n.gen != h.gen {
		panic("buffer: stale handle: node was purged and recycled while referenced")
	}
	return h.n
}
