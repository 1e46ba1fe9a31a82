// Package join implements the streaming join operator behind the
// analysis.JoinInfo plan node (DESIGN.md §10). The engine drives it in
// one pass over the input:
//
//   - each probe binding's output events are captured into a Group —
//     head events before the build loop's splice point, tail events
//     after it — keyed by the probe side's join-key values;
//   - the build side, still resident in the buffer at end of input
//     (its hoisted sign-offs run only after the output wrapper), is
//     scanned once into a Table: a keyed hash index over captured
//     per-tuple payload events;
//   - the groups replay in probe document order with the matching
//     payloads spliced in build document order — exactly the event
//     sequence nested-loop evaluation would have produced, in
//     O(probe + build + matches) instead of O(probe × build).
//
// Comparison semantics are the engine's existential string equality
// (evalCompare with two path operands and no numeric literal): a probe
// binding matches a build tuple iff their key-value sets intersect, so
// a hash table over exact string keys is precise, not approximate.
package join

import (
	"sort"

	"gcx/internal/event"
)

type opKind uint8

const (
	opStart opKind = iota
	opEnd
	opText
)

// Op is one captured output event.
type Op struct {
	kind  opKind
	name  string
	text  string
	attrs []event.Attr
}

// Capture is an event.Sink that records emitted events instead of
// serializing them, for later Replay. BytesWritten reports 0: output
// bytes are accounted when the events replay into the real sink.
type Capture struct {
	ops []Op
}

// NewCapture returns an empty capture sink.
func NewCapture() *Capture { return &Capture{} }

func (c *Capture) StartElement(name string, attrs []event.Attr) {
	c.ops = append(c.ops, Op{kind: opStart, name: name, attrs: attrs})
}

func (c *Capture) EndElement(name string) {
	c.ops = append(c.ops, Op{kind: opEnd, name: name})
}

func (c *Capture) Text(text string) {
	c.ops = append(c.ops, Op{kind: opText, text: text})
}

func (c *Capture) Flush() error        { return nil }
func (c *Capture) BytesWritten() int64 { return 0 }
func (c *Capture) Release()            {}

// Mark returns the current event count — the splice position recorded
// when the probe body reaches the build loop.
func (c *Capture) Mark() int { return len(c.ops) }

// Take returns the captured events and resets the capture.
func (c *Capture) Take() []Op {
	ops := c.ops
	c.ops = nil
	return ops
}

// Replay feeds recorded events into sink.
func Replay(ops []Op, sink event.Sink) {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opStart:
			sink.StartElement(op.name, op.attrs)
		case opEnd:
			sink.EndElement(op.name)
		case opText:
			sink.Text(op.text)
		}
	}
}

// Group is one probe binding's captured output: Head replays before the
// matched build payloads, Tail after. Splice is false when the build
// loop never executed for this binding (it sat under a false condition)
// — then no payloads are emitted regardless of key matches.
type Group struct {
	Keys   []string
	Head   []Op
	Tail   []Op
	Splice bool
}

// Table is the materialized build side: per-tuple payload events plus a
// hash index from key value to the tuples carrying it.
type Table struct {
	payloads [][]Op
	index    map[string][]int
}

// NewTable returns an empty build table.
func NewTable() *Table { return &Table{index: make(map[string][]int)} }

// Add appends one build tuple with its key-value set and captured
// payload. Duplicate key values within one tuple index it only once.
func (t *Table) Add(keys []string, payload []Op) {
	i := len(t.payloads)
	t.payloads = append(t.payloads, payload)
	for ki, k := range keys {
		dup := false
		for _, prev := range keys[:ki] {
			if prev == k {
				dup = true
				break
			}
		}
		if !dup {
			t.index[k] = append(t.index[k], i)
		}
	}
}

// Len reports the number of build tuples added.
func (t *Table) Len() int { return len(t.payloads) }

// Payload returns tuple i's captured events.
func (t *Table) Payload(i int) []Op { return t.payloads[i] }

// Match returns the distinct tuples whose key sets intersect keys, in
// build document order — the order nested evaluation emits matches in.
func (t *Table) Match(keys []string) []int {
	if len(keys) == 1 {
		return t.index[keys[0]] // already sorted and distinct
	}
	var out []int
	seen := map[int]bool{}
	for _, k := range keys {
		for _, i := range t.index[k] {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}
