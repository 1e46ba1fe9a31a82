// Package join implements the streaming join operator behind the
// analysis.JoinInfo plan node (DESIGN.md §10). The engine drives it in
// one pass over the input:
//
//   - each probe binding's output events are captured into a Group —
//     head events before the build loop's splice point, tail events
//     after it — keyed by the probe side's join-key values;
//   - each build tuple's key values are taken at its close; at end of
//     input its payload, still resident in the buffer (its hoisted
//     sign-offs run only after the output wrapper), is captured, and
//     keys and payloads go into a Table: a keyed hash index over
//     captured per-tuple payload events;
//   - the groups replay in probe document order with the matching
//     payloads spliced in build document order — exactly the event
//     sequence nested-loop evaluation would have produced, in
//     O(probe + build + matches) instead of O(probe × build).
//
// Comparison semantics are the engine's existential string equality
// (tryCompare with two path operands and no numeric literal): a probe
// binding matches a build tuple iff their key-value sets intersect, so
// a hash table over exact string keys is precise, not approximate.
package join

import (
	"slices"
	"unsafe"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

const (
	opStart uint8 = iota
	opEnd
	opText
)

// Op is one captured output event: s is the element name or the text;
// a start element's attributes are [alo, ahi) of the capture's slab.
type Op struct {
	kind     uint8
	alo, ahi int32
	s        string
}

// The sizes behind Capture.Bytes and Table.Bytes, which estimate what
// the slabs hold as the buffer estimates a node: each element's struct
// plus the bytes of the strings it keeps. An end event's name is its
// start's, so it adds no string bytes.
const (
	opSize    = int64(unsafe.Sizeof(Op{}))
	attrSize  = int64(unsafe.Sizeof(event.Attr{}))
	entrySize = int64(unsafe.Sizeof(entry{}))
	boundSize = int64(unsafe.Sizeof(int32(0)))
	// keySize is an index key's map slot: its string header and chain.
	keySize = int64(unsafe.Sizeof("") + unsafe.Sizeof(chain{}))
)

func opBytes(op Op) int64 {
	if op.kind == opEnd {
		return opSize
	}
	return opSize + int64(len(op.s))
}

// Capture is an event.Sink recording events into run-long slabs for
// Replay (DESIGN.md §10 "The slab layout"); its zero value is ready.
// Attribute lists are copied, being valid only for the call; strings are
// owned already. BytesWritten is 0: bytes count when events replay.
type Capture struct {
	ops   []Op
	attrs []event.Attr
	bytes int64
}

func (c *Capture) StartElement(name string, attrs []event.Attr) {
	lo := int32(len(c.attrs))
	c.attrs = append(c.attrs, attrs...)
	op := Op{kind: opStart, s: name, alo: lo, ahi: int32(len(c.attrs))}
	c.ops = append(c.ops, op)
	c.bytes += opBytes(op)
	for _, a := range attrs {
		c.bytes += attrSize + int64(len(a.Name)+len(a.Value))
	}
}

func (c *Capture) EndElement(name string) { c.add(Op{kind: opEnd, s: name}) }
func (c *Capture) Text(text string)       { c.add(Op{kind: opText, s: text}) }
func (c *Capture) Flush() error           { return nil }
func (c *Capture) BytesWritten() int64    { return 0 }
func (c *Capture) Release()               {}

func (c *Capture) add(op Op) {
	c.ops = append(c.ops, op)
	c.bytes += opBytes(op)
}

// Bytes estimates what the capture holds: its events and every
// attribute it has copied.
func (c *Capture) Bytes() int64 { return c.bytes }

// Reset empties the capture for another run, keeping its slabs within
// cursor.MaxScratch and dropping the strings they held.
func (c *Capture) Reset() {
	clear(c.ops[:cap(c.ops)])
	clear(c.attrs[:cap(c.attrs)])
	c.ops, c.attrs = cursor.Scratch(c.ops), cursor.Scratch(c.attrs)
	c.bytes = 0
}

// Mark returns the event count: where a group or payload starts, or a splice.
func (c *Capture) Mark() int32 { return int32(len(c.ops)) }

// Ops returns the captured events [lo, hi).
func (c *Capture) Ops(lo, hi int32) []Op { return c.ops[lo:hi:hi] }

// Truncate drops the events from n on; their attributes stay for Table.Add's copies.
func (c *Capture) Truncate(n int32) {
	for _, op := range c.ops[n:] {
		c.bytes -= opBytes(op)
	}
	c.ops = c.ops[:n]
}

// Replay feeds events recorded by c — through Ops or a Table — into sink.
func (c *Capture) Replay(ops []Op, sink event.Sink) {
	for _, op := range ops {
		switch op.kind {
		case opStart:
			sink.StartElement(op.s, c.attrs[op.alo:op.ahi:op.ahi])
		case opEnd:
			sink.EndElement(op.s)
		case opText:
			sink.Text(op.s)
		}
	}
}

// Group is one probe binding's output as ranges into the run's slabs:
// key values [KeyLo, KeyHi), events [Lo, Mid) to replay before the
// matched build payloads and [Mid, Hi) after them. Splice is false (and
// Mid is Hi) when the build loop never executed for this binding — it
// sat under a false condition — so no payloads are emitted.
type Group struct {
	KeyLo, KeyHi, Lo, Mid, Hi int32
	Splice                    bool
}

// Table is the materialized build side: payload events back to back in
// one slab, and a hash index from key value to a chain of entries, one
// per (key value, tuple) pair — a multi-valued tuple is on several. Its
// zero value is ready.
type Table struct {
	ops     []Op
	bounds  []int32 // tuple i's payload is ops[bounds[i]:bounds[i+1]]
	index   map[string]chain
	entries []entry
	match   []int // Match's result, reused
	nodes   int64 // Nodes
	bytes   int64 // Bytes
}

type (
	chain struct{ head, tail int32 }  // a key value's first and last entry
	entry struct{ tuple, next int32 } // next is -1 at a chain's end
)

// maxPooledKeys is the most key values whose index Reset keeps: about
// cursor.MaxScratch at 32 bytes a map slot.
const maxPooledKeys = cursor.MaxScratch / 32

// NewTable returns an empty build table.
func NewTable() *Table { return new(Table) }

// Reset empties the table for another build side. The slabs keep their
// capacity within cursor.MaxScratch and the index its buckets up to
// maxPooledKeys values, so a table reused across runs grows only past
// the largest build side it has held; no string of the last one stays
// reachable.
func (t *Table) Reset() {
	clear(t.ops[:cap(t.ops)])
	t.ops = cursor.Scratch(t.ops)
	t.bounds = cursor.Scratch(t.bounds)
	t.entries = cursor.Scratch(t.entries)
	t.match = cursor.Scratch(t.match)
	t.nodes, t.bytes = 0, 0
	if len(t.index) > maxPooledKeys {
		t.index = nil
	}
	clear(t.index)
}

// Add appends one build tuple with its key-value set, copying its
// payload events into the table. Duplicate key values within one tuple
// index it only once.
func (t *Table) Add(keys []string, payload []Op) {
	if len(t.bounds) == 0 { // a new or reset table
		t.bounds = append(t.bounds, 0)
		if t.index == nil {
			t.index = make(map[string]chain)
		}
	}
	i := int32(t.Len())
	t.ops = append(t.ops, payload...)
	t.bounds = append(t.bounds, int32(len(t.ops)))
	t.bytes += boundSize
	for _, op := range payload {
		t.bytes += opBytes(op)
		if op.kind != opEnd {
			t.nodes++
		}
	}
	for ki, k := range keys {
		if slices.Contains(keys[:ki], k) {
			continue
		}
		e := int32(len(t.entries))
		t.entries = append(t.entries, entry{tuple: i, next: -1})
		t.bytes += entrySize
		c := chain{e, e}
		if prev, ok := t.index[k]; ok {
			t.entries[prev.tail].next, c.head = e, prev.head
		} else {
			t.bytes += keySize + int64(len(k))
		}
		t.index[k] = c
	}
}

// Nodes counts the payloads' start and text events: the nodes they
// stand for.
func (t *Table) Nodes() int64 { return t.nodes }

// Bytes estimates what the table holds: its payload events, bounds,
// entries and index keys. The payloads' attributes stay in the Capture
// they were recorded by, and count there.
func (t *Table) Bytes() int64 { return t.bytes }

// Len reports the number of build tuples added.
func (t *Table) Len() int { return max(len(t.bounds)-1, 0) }

// Payload returns tuple i's events, to replay through their Capture.
func (t *Table) Payload(i int) []Op { return t.ops[t.bounds[i]:t.bounds[i+1]:t.bounds[i+1]] }

// Match returns the distinct tuples whose key sets intersect keys, in
// build document order — the order nested evaluation emits matches in.
// The result is valid until the next Match.
func (t *Table) Match(keys []string) []int {
	out := t.match[:0]
	for _, k := range keys {
		if c, ok := t.index[k]; ok {
			for e := c.head; e >= 0; e = t.entries[e].next {
				out = append(out, int(t.entries[e].tuple))
			}
		}
	}
	if len(keys) > 1 { // one chain is already sorted and distinct
		slices.Sort(out)
		out = slices.Compact(out)
	}
	t.match = out
	return out
}
