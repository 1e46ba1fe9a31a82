package cursor

import (
	"runtime"
	"sync"
)

// Pool recycles one kind of run state — engines, node slabs,
// tokenizers, serializers, shard tasks (DESIGN.md §13). It is a
// sync.Pool behind a small front that every P shares: a sync.Pool Put
// lands in the putting P's private slot, which no other P can take, so
// a run that starts on another P than the last one finished on — a
// fresh goroutine per request or per measurement window — would
// rebuild its state from scratch. Put fills the front first and
// overflows into the sync.Pool, whose entries the garbage collector
// may drop after a burst; the front holds at most GOMAXPROCS entries,
// each within the MaxScratch caps its holder applies at release.
type Pool[T any] struct {
	front chan *T
	back  sync.Pool
}

// NewPool returns a pool that builds a new entry with newT when it has
// none to hand out.
func NewPool[T any](newT func() *T) *Pool[T] {
	return &Pool[T]{
		front: make(chan *T, runtime.GOMAXPROCS(0)),
		back:  sync.Pool{New: func() any { return newT() }},
	}
}

// Get hands out a pooled entry, or a new one.
func (p *Pool[T]) Get() *T {
	select {
	case x := <-p.front:
		return x
	default:
		return p.back.Get().(*T)
	}
}

// Put hands x back for a later Get.
func (p *Pool[T]) Put(x *T) {
	select {
	case p.front <- x:
	default:
		p.back.Put(x)
	}
}
