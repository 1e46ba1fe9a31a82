package xmltok

import (
	"io"

	"gcx/internal/event"
)

// NewTokenizerWindow is NewTokenizer with a reader window of size bytes
// instead of the 64 KiB default: a window of a few dozen bytes puts a
// refill inside nearly every construct, which keeps the tokenizer on
// its careful path.
func NewTokenizerWindow(r io.Reader, size int) *Tokenizer {
	t := NewTokenizer(r)
	t.cur.ResetReader(r, size)
	return t
}

// DeadNames is a name-set event.Skipper: the elements it names are dead
// wherever they occur.
type DeadNames map[string]bool

func (d DeadNames) Child(name string) (event.Verdict, []string) {
	if d[name] {
		return event.Dead, nil
	}
	return event.Live, nil
}
