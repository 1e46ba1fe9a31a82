// Package event defines the format-neutral tree-event model that
// decouples the GCX runtime from any concrete input syntax.
//
// The paper's contribution — projection-driven dynamic buffer
// minimization over a token stream — only needs a stream of
// start-record/start-element/text/end-element events over an ordered
// labelled tree. Package event names that contract: a Source produces
// the events (internal/xmltok for XML, internal/jsontok for
// JSON/NDJSON), a Sink consumes the evaluator's output events, and the
// preprojector, buffer manager and engine in between operate purely on
// these types. Any new input format that can present itself as a
// Source inherits the whole stack — projection, active garbage
// collection, dead-subtree skipping and sharding — unchanged.
package event

import (
	"context"
	"fmt"
	"strings"
)

// Kind identifies the kind of a Token.
type Kind uint8

const (
	// StartElement opens a labelled tree node. Self-closing XML tags
	// produce a StartElement immediately followed by an EndElement, so
	// the paper's token counting (82 tags for 41 nodes) is preserved.
	StartElement Kind = iota
	// EndElement closes the innermost open node.
	EndElement
	// Text is character data (format-level escapes already resolved).
	Text
)

func (k Kind) String() string {
	switch k {
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Text:
		return "Text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute of an element. JSON sources never produce
// attributes; constructed output elements may still carry them.
type Attr struct {
	Name  string
	Value string
}

// Token is one event of the input or output stream. Source says how
// long the parts of a token it delivered may be kept.
type Token struct {
	Kind Kind
	// Name is the element name for StartElement and EndElement tokens.
	Name string
	// Text is the character data for Text tokens.
	Text string
	// Attrs holds the attributes of a StartElement token, in document
	// order. It is nil for all other kinds.
	Attrs []Attr
}

// Clone returns t with its Text copied, which is what keeping a token
// of a volatile Source past the next pull takes. Name and Attrs are
// shared: they are stable on every Source.
func (t Token) Clone() Token {
	t.Text = strings.Clone(t.Text)
	return t
}

// Attr returns the value of the named attribute and whether it exists.
func (t *Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SkipStats reports a Source's byte-level fast-forward counters
// (DESIGN.md §7): bytes the source never tokenized because the
// preprojector found them dead, a lower bound on the element tokens it
// never delivered (the start tag of a dead child included), and the
// number of fast-forwards taken.
type SkipStats struct {
	BytesSkipped    int64
	TagsSkipped     int64
	SubtreesSkipped int64
}

// Verdict is a Skipper's answer about one child element.
type Verdict uint8

const (
	// Live: the Source delivers the child.
	Live Verdict = iota
	// Dead: nothing at or below the child can match. The Source
	// fast-forwards past it as SkipSubtree would and delivers none of
	// it.
	Dead
	// Seek: only a start tag below the child named in the sought set
	// can match, or change anything else. A Source that can raw-scan
	// for one (xmltok) passes over everything before it: if there is
	// none, the child is dropped as a dead one is; if there is, the
	// Source delivers the child, then the open elements between it and
	// that tag — unasked, with their attributes — then asks about the
	// tag as about any child. After the tag closes, later children are
	// asked again. A Source that cannot (jsontok) takes Seek as Live.
	Seek
)

// Skipper is the child test a Source consults before it delivers a
// StartElement (DESIGN.md §7): the preprojector, answering from its
// items.
//
// A Source may ask about one child more than once, and an answer may be
// followed by no StartElement at all: jsontok asks at an array's '[',
// for the whole array, and again at each item, and an empty array
// delivers none; a Seek that finds no sought tag delivers none either,
// nor does a live record that a Source's record filter rejects
// (Filtered). So no answer commits anything: the Skipper answers a
// repeated question as it answered the first, and only the delivery of
// the StartElement makes a live or seek answer take effect. A dead answer
// is final (the child, or the whole array, is skipped), so a child
// whose delivery would change the Skipper's state — a first-witness
// latch its match flips — is alive.
type Skipper interface {
	// Child answers about a child element named name of the innermost
	// open element, the StartElement the Source is about to deliver or
	// drop: one question per start tag. With Seek, sought is the set of
	// names sought below the child, valid until the next call.
	Child(name string) (v Verdict, sought []string)
}

// Source is a pull-based producer of tree events — the format boundary
// of the engine. Implementations are single-goroutine streaming
// tokenizers; all methods must be called from one goroutine.
//
// Token lifetime: Name and Attrs of a delivered token stay valid for
// good. Text stays valid for good on a Source that is not Volatile (one
// scanning a caller-owned []byte in place). On a Volatile one (a
// streaming reader) it is a view into the Source's window or scratch,
// valid until the next Next or SkipSubtree: a consumer that keeps text
// copies it first (Token.Clone; the preprojector copies into the
// buffer's arena, the DOM oracle clones). Under go test a Volatile
// Source overwrites an expired view, so a kept one reads 0xDB bytes.
type Source interface {
	// Next returns the next event, io.EOF at end of input, or a
	// format-level syntax error. Cancellation of an attached context is
	// reported as ctx.Err() within one token. An error is final: once
	// Next or SkipSubtree has returned one, Next returns it again.
	//
	// With a Skipper installed, Next asks it about every StartElement
	// before delivering it, but for those a seek delivers unasked (see
	// Seek); a dead one, and a record its record filter rejects
	// (Filtered), is fast-forwarded as SkipSubtree would and never
	// delivered, and Next goes on to the event after it.
	Next() (Token, error)
	// SkipSubtree fast-forwards past the subtree of the StartElement
	// most recently returned by Next, without producing its events: the
	// next Next call returns the first event after the subtree's end.
	// It must only be called immediately after Next returned a
	// StartElement.
	SkipSubtree() error
	// SetSkipper installs the child test Next consults; nil removes
	// it. Release removes it too, so a pooled Source keeps no consumer
	// alive.
	SetSkipper(s Skipper)
	// TokenCount reports how many events Next has delivered so far (the
	// x-axis of the paper's buffer plots); skipped events, dead children
	// included, do not count.
	TokenCount() int64
	// SkipStats reports the byte-level skip counters: those of
	// SkipSubtree calls, of the dead children and rejected records Next
	// dropped and of the bytes and tags its seeks passed over. A seek
	// that found nothing counts as one skipped subtree.
	SkipStats() SkipStats
	// Volatile reports, once for the whole stream, whether Text views
	// expire at the next pull (see above).
	Volatile() bool
	// Runs reports, once for the whole stream, whether the children of
	// an element that share a name form one contiguous run: true for
	// JSON, where a member k is the run of k elements its value maps to
	// (DESIGN.md §8), false for XML. Once a sibling of another name has
	// started, the run has ended, and a consumer may decide from it.
	// The fact is the format's, not the document's: JSON accepts a
	// repeated key, and a consumer that decided from the run reports the
	// repeat (projection.RepeatedKeyError) rather than read on.
	Runs() bool
	// SetContext attaches a cancellation context checked at every pull.
	SetContext(ctx context.Context)
	// Release hands pooled buffers back; the Source is unusable after.
	Release()
}

// Sink is the serializer side of the event contract: the evaluator
// writes its result tree through a Sink, which renders it in a concrete
// output syntax (XML or JSON). Implementations buffer internally and
// report write errors on Flush.
type Sink interface {
	// StartElement opens an element with the given attributes. attrs is
	// valid only for the call (the engine builds constructors' lists in
	// a scratch); an implementation that keeps the list copies it. The
	// strings in it may be kept.
	StartElement(name string, attrs []Attr)
	// EndElement closes the innermost open element, which has the given
	// name.
	EndElement(name string)
	// Text appends character data to the current element (or the top
	// level), escaped as the output syntax requires.
	Text(text string)
	// Flush writes buffered output through and returns the first error
	// seen on any operation.
	Flush() error
	// BytesWritten reports the number of output bytes emitted so far,
	// buffered output included.
	BytesWritten() int64
	// Release hands pooled buffers back, discarding unflushed output;
	// the Sink is unusable after.
	Release()
}

// MaxDepth is the deepest nesting any Source accepts: open elements in
// XML, open objects and arrays in JSON. One level more is the front
// end's syntax error, on the token, skip and split paths alike, so open
// tags alone cannot make a hostile document pin more than ~100 KiB.
const MaxDepth = 4096

// Virtual element names of the JSON↔tree mapping (DESIGN.md §8). They
// live here — not in jsontok — because the shardability layer and the
// path analysis refer to them without depending on the tokenizer.
const (
	// RootName labels the synthesized stream root: a JSON/NDJSON input
	// tokenizes as one RootName element containing the records.
	RootName = "root"
	// RecordName labels each top-level JSON value (one NDJSON line).
	// Array items inherit the name of the nearest enclosing object
	// member (or RecordName at the top level), so no third name exists.
	RecordName = "record"
)
