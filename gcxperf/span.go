package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the span that caused this one (0 for
// the operation's root). Times are nanoseconds since the recorder's
// epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span laid out from a cumulative phase time the
	// program reported (Result.Trace), not from an interval this harness
	// clocked: its length is measured, its position inside the parent is
	// not.
	Derived bool `json:"derived,omitempty"`
}

// recorder keeps the spans of a traced pass in memory; they are written
// out when the benchmark ends. It is safe for concurrent use: the
// serving workloads record from two clients and the server's handler
// goroutines.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// reserve allocates a span whose times are set later by finish, so that
// children recorded meanwhile can name it as parent. A span without a
// parent starts an operation, which takes the span's id.
func (r *recorder) reserve(parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	op := id
	if parent > 0 && parent <= len(r.spans) {
		op = r.spans[parent-1].Op
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	return id
}

func (r *recorder) finish(id int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.Start, s.End = int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch))
}

// derive lays cumulative phase times out as consecutive children of
// parent, starting at the parent's start.
func (r *recorder) derive(parent int, phases []namedNanos) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	at := p.Start
	for _, ph := range phases {
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: parent, Op: p.Op, Name: ph.name,
			Start: at, End: at + ph.nanos, Derived: true,
		})
		at += ph.nanos
	}
}

type namedNanos struct {
	name  string
	nanos int64
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Children are clipped to the
// parent and overlapping children counted once, so phase times summed
// over parallel workers cannot drive a self time below zero.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}
