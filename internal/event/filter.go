package event

// RecordFilter is a condition over the top-level members of a record of
// the stream (DESIGN.md §3, "Decision timing"). For a loop over the
// records whose whole body is `if (C) then T else ()`, the analysis
// compiles C into one (analysis.Plan.Filter), the engine installs it on
// a Source that is Filtered, and that Source drops a live record whose
// bytes C rejects: no token, no node.
type RecordFilter struct {
	// Cond is the condition.
	Cond *FilterCond
	// Keys are the member names the atoms read; FilterCond.Key indexes
	// them. There are at most MaxFilterKeys.
	Keys []string
	// Live are the names of the other members some role steps into,
	// which the token path would deliver; LiveAll is set when roles step
	// into members of any name.
	Live    []string
	LiveAll bool
}

// MaxFilterKeys is how many distinct keys a RecordFilter may read: a
// Source keeps one bit per key.
const MaxFilterKeys = 64

// FilterOp is the operator of a FilterCond.
type FilterOp uint8

const (
	// FilterExists: the member Key is present.
	FilterExists FilterOp = iota
	// FilterEq: the member Key is present and its value is Lit.
	FilterEq
	// FilterNe: the member Key is present and its value is not Lit.
	FilterNe
	// FilterNot: Args[0] is false.
	FilterNot
	// FilterAnd: Args[0] and Args[1] are true.
	FilterAnd
	// FilterOr: Args[0] or Args[1] is true.
	FilterOr
)

// FilterCond is one node of a RecordFilter's condition: an atom on the
// member Keys[Key], or not, and, or over Args.
type FilterCond struct {
	Op   FilterOp
	Key  int
	Lit  string
	Args []*FilterCond
}

// Accepts evaluates c on a record in which the member Keys[k] occurs
// once, with the string value vals[k], when bit k of present is set, and
// does not occur otherwise. A general comparison reads a key's values
// existentially, so an absent member satisfies neither = nor !=.
func (c *FilterCond) Accepts(present uint64, vals [][]byte) bool {
	switch c.Op {
	case FilterExists:
		return present&(1<<c.Key) != 0
	case FilterEq:
		return present&(1<<c.Key) != 0 && string(vals[c.Key]) == c.Lit
	case FilterNe:
		return present&(1<<c.Key) != 0 && string(vals[c.Key]) != c.Lit
	case FilterNot:
		return !c.Args[0].Accepts(present, vals)
	case FilterAnd:
		return c.Args[0].Accepts(present, vals) && c.Args[1].Accepts(present, vals)
	}
	return c.Args[0].Accepts(present, vals) || c.Args[1].Accepts(present, vals)
}

// Filtered is implemented by a Source that can read a RecordFilter from
// a record's bytes (jsontok; xmltok cannot). SetFilter installs f, nil
// removes it, and so does Release. With f installed, a record the
// Skipper answers Live about, and f rejects, may be dropped as a dead
// child is: with no event. Any other record is delivered as before.
type Filtered interface {
	SetFilter(f *RecordFilter)
}
