package jsontok

import (
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gcx/internal/event"
)

// filterSkipper answers as the preprojector does for a record loop
// whose condition is f: Live about every record, and about the records'
// members Live when the filter reads them or a role steps into them,
// Dead otherwise. The harness keeps depth, the number of open elements.
type filterSkipper struct {
	f     *event.RecordFilter
	depth int
}

func (s *filterSkipper) Child(name string) (event.Verdict, []string) {
	switch {
	case s.depth == 2 && !s.f.LiveAll && !slices.Contains(s.f.Keys, name) && !slices.Contains(s.f.Live, name):
		return event.Dead, nil
	}
	return event.Live, nil
}

// filterKeys and filterLits are the alphabet of randomFilter; records in
// the seeds use them, "d" as a member a role steps into and "e" as one no
// role reads.
var (
	filterKeys = []string{"a", "b", "c"}
	filterLits = []string{"", "x", "1"}
)

// randomFilter builds a condition over filterKeys from seed: atoms
// exists, = and != joined by not, and and or, with "d" or every member
// live.
func randomFilter(seed uint64) *event.RecordFilter {
	r := rand.New(rand.NewSource(int64(seed)))
	f := &event.RecordFilter{Live: []string{"d"}, LiveAll: r.Intn(5) == 0}
	var cond func(depth int) *event.FilterCond
	cond = func(depth int) *event.FilterCond {
		c := &event.FilterCond{Op: event.FilterOp(r.Intn(6))}
		if depth > 2 {
			c.Op %= event.FilterNot
		}
		switch c.Op {
		case event.FilterNot:
			c.Args = []*event.FilterCond{cond(depth + 1)}
		case event.FilterAnd, event.FilterOr:
			c.Args = []*event.FilterCond{cond(depth + 1), cond(depth + 1)}
		default:
			key := filterKeys[r.Intn(len(filterKeys))]
			if c.Key = slices.Index(f.Keys, key); c.Key < 0 {
				c.Key, f.Keys = len(f.Keys), append(f.Keys, key)
			}
			c.Lit = filterLits[r.Intn(len(filterLits))]
		}
		return c
	}
	f.Cond = cond(0)
	return f
}

// segment is a record's events, or one event outside every record.
type segment struct {
	toks   []event.Token
	record bool
}

// filterEvents tokenizes with a filterSkipper and cuts the events into
// segments; err is the error that ended the stream, nil at its end.
func filterEvents(t *testing.T, tz *Tokenizer, f *event.RecordFilter, on bool, doc string) (segs []segment, err error) {
	defer tz.Release()
	s := &filterSkipper{f: f}
	tz.SetSkipper(s)
	if on {
		tz.SetFilter(f)
	}
	for n := 0; ; n++ {
		tok, err := tz.Next()
		if err == io.EOF {
			return segs, nil
		}
		if err != nil {
			return segs, err
		}
		if n > 4*len(doc)+16 {
			t.Fatal("runaway tokenizer")
		}
		if s.depth == 1 && tok.Kind == event.StartElement || s.depth > 1 {
			if s.depth == 1 {
				segs = append(segs, segment{record: true})
			}
			last := &segs[len(segs)-1]
			last.toks = append(last.toks, tok.Clone())
		} else {
			segs = append(segs, segment{toks: []event.Token{tok}})
		}
		switch tok.Kind {
		case event.StartElement:
			s.depth++
		case event.EndElement:
			s.depth--
		}
	}
}

// rejects reports whether f rejects the record whose events are toks,
// read as the engine reads the condition: a member's value is the text
// below its element, and an atom holds for some element of its key.
func rejects(f *event.RecordFilter, toks []event.Token) bool {
	vals := make([][]string, len(f.Keys))
	depth, k := 0, -1
	var text strings.Builder
	for _, tok := range toks {
		switch tok.Kind {
		case event.StartElement:
			if depth++; depth == 2 {
				k = slices.Index(f.Keys, tok.Name)
				text.Reset()
			}
		case event.EndElement:
			if depth--; depth == 1 && k >= 0 {
				vals[k] = append(vals[k], text.String())
			}
		case event.Text:
			text.WriteString(tok.Text)
		}
	}
	var holds func(c *event.FilterCond) bool
	holds = func(c *event.FilterCond) bool {
		switch c.Op {
		case event.FilterExists:
			return len(vals[c.Key]) > 0
		case event.FilterEq:
			return slices.Contains(vals[c.Key], c.Lit)
		case event.FilterNe:
			return slices.ContainsFunc(vals[c.Key], func(v string) bool { return v != c.Lit })
		case event.FilterNot:
			return !holds(c.Args[0])
		case event.FilterAnd:
			return holds(c.Args[0]) && holds(c.Args[1])
		}
		return holds(c.Args[0]) || holds(c.Args[1])
	}
	return !holds(f.Cond)
}

// sameSegments reports whether a and b hold the same events.
func sameSegments(a, b segment) bool {
	return slices.EqualFunc(a.toks, b.toks, func(x, y event.Token) bool {
		return x.Kind == y.Kind && x.Name == y.Name && x.Text == y.Text
	})
}

// filterSeeds are the records FuzzRecordFilter starts from.
var filterSeeds = []string{
	"{\"a\":\"x\",\"e\":1}\n{\"a\":\"1\",\"d\":\"v\"}\n{}\n{\"b\":\"\",\"c\":\"x\"}\n",
	// Escapes in keys and in values.
	`{"a":"1"} {"a":"x"} {"a":"x\n"} {"a":"\u0078"} {"b":"\u0031"} {"a\"":"x"} {"e\\":"x","a":"1"} {"\u0061":"1"}`,
	// Number, keyword, null, array and object values for a decided key.
	`{"a":1}{"a":true}{"a":null}{"a":["x"]}{"a":[]}{"a":{"b":"x"}}`,
	// The decided key repeated after another member, and right after.
	`{"a":"1","e":"z","a":"x"} {"a":"x","a":"1"} {"b":"x","c":"1","b":""} {"c":"","a":"x","c":"1"} {"b":"1","e":2,"b":"x"}`,
	// A live member before the decided one.
	`{"d":"v","a":"x"} {"d":{"z":"1"},"a":"1"} {"d":2,"b":"x"}`,
	// Dead values as skipDead passes over them.
	`{"e":tru,"a":"x"} {"e":-,"a":"1"} {"e":[1,{"q":2}],"a":"x"} {"e":{"q":[}],"a":"1"} {"e":nul}`,
	`{"e":` + strings.Repeat("[", event.MaxDepth) + strings.Repeat("]", event.MaxDepth) + `,"a":"x"}`,
	// Nesting past the ceiling, the deepest bracket right before a '}'
	// that would end the record.
	`{"e":` + strings.Repeat("[", event.MaxDepth) + `}` + "\n" + `{"a":"x"}`,
	// Separators the token path rejects.
	`{"a":"x",} {"a" "x"} {"a":"x" "b":"1"} {,"a":"x"}`,
	// An unterminated string.
	`{"a":"x"} {"e":"abc`,
	// A record larger than one block.
	`{"a":"1"}` + "\n" + `{"e":"` + strings.Repeat("z", 70<<10) + `","a":"x"}` + "\n" + `{"a":"x"}`,
	// Records that are no objects.
	`[{"a":"x"},{"a":"1"}] "a" 1`,
}

// FuzzRecordFilter checks the record scan (filterRecord) against the
// token path on random records and conditions, on the slice, a reader
// with the default window and a reader with a 16–63-byte window: with
// the scan on, the events are those with it off less some whole
// records, each of which the condition rejects, and the stream ends at
// the same error, message and offset both, or at the same end.
func FuzzRecordFilter(f *testing.F) {
	for i, s := range filterSeeds {
		for cond := range uint64(16) {
			f.Add(s, cond, uint8(i+int(cond)))
		}
	}
	f.Fuzz(func(t *testing.T, doc string, cond uint64, sizeSeed uint8) {
		if len(doc) > 1<<20 {
			return
		}
		filter := randomFilter(cond)
		for _, name := range []string{"bytes", "default reader", "window"} {
			open := func() *Tokenizer {
				switch name {
				case "bytes":
					return NewTokenizerBytes([]byte(doc))
				case "default reader":
					return NewTokenizer(strings.NewReader(doc))
				}
				return openBacking("reader", doc, sizeSeed)
			}
			off, offErr := filterEvents(t, open(), filter, false, doc)
			on, onErr := filterEvents(t, open(), filter, true, doc)
			if (offErr == nil) != (onErr == nil) || offErr != nil && offErr.Error() != onErr.Error() {
				t.Fatalf("%s: scan on ends with %v, off with %v\ninput: %q", name, onErr, offErr, doc)
			}
			j := 0
			for _, seg := range off {
				switch {
				case j < len(on) && sameSegments(seg, on[j]):
					j++
				case !seg.record || !rejects(filter, seg.toks):
					t.Fatalf("%s: the scan drops or changes %v, which the condition does not reject\ninput: %q", name, seg.toks, doc)
				}
			}
			if j != len(on) {
				t.Fatalf("%s: the scan delivers %v, which the token path does not\ninput: %q", name, on[j].toks, doc)
			}
		}
	})
}

// TestRecordFilterDrops pins what the scan takes: on every backing whose
// window holds a whole record, the records J1's condition rejects are
// consumed without an event, counted as skipped — the record's tag and
// one per ':' — and the accepted one is delivered.
func TestRecordFilterDrops(t *testing.T) {
	j1 := &event.RecordFilter{
		Cond: &event.FilterCond{Op: event.FilterEq, Key: 0, Lit: "person0"},
		Keys: []string{"bidder"},
		Live: []string{"amount"},
	}
	doc := `{"auction":"a1","bidder":"person1","seller":"s","amount":"5.00","item":{"name":"n","tags":["x","y"]}}` + "\n" +
		`{"bidder":"person0","amount":"7.00"}` + "\n" +
		`{"amount":"1.00","bidder":"person2","e":[null,true,-1.5e3]}` + "\n"
	for _, name := range []string{"bytes", "default reader"} {
		tz := NewTokenizerBytes([]byte(doc))
		if name != "bytes" {
			tz = NewTokenizer(strings.NewReader(doc))
		}
		s := &filterSkipper{f: j1}
		tz.SetSkipper(s)
		tz.SetFilter(j1)
		var records int
		for {
			tok, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			switch tok.Kind {
			case event.StartElement:
				if s.depth == 1 {
					records++
				}
				s.depth++
			case event.EndElement:
				s.depth--
			}
		}
		got := tz.SkipStats()
		tz.Release()
		lines := strings.Split(doc, "\n")
		want := event.SkipStats{
			BytesSkipped:    int64(len(lines[0]) - 1 + len(lines[2]) - 1),
			TagsSkipped:     1 + 7 + 1 + 3,
			SubtreesSkipped: 2,
		}
		if records != 1 || got != want {
			t.Errorf("%s: %d records delivered, skip stats %+v; want 1 and %+v", name, records, got, want)
		}
	}
}

// TestRecordScanSampling pins when the scan reads a record (scanPays):
// every record while at least a quarter of the recent ones were
// dropped, and only every scanProbe-th once fewer were, until the
// probes find the share back above a quarter.
func TestRecordScanSampling(t *testing.T) {
	f := &event.RecordFilter{
		Cond: &event.FilterCond{Op: event.FilterEq, Key: 0, Lit: "x"},
		Keys: []string{"a"},
	}
	const kept, dropped = `{"a":"x"}` + "\n", `{"a":"1"}` + "\n"
	for _, c := range []struct {
		name string
		doc  string
		// lo and hi bound the records dropped.
		lo, hi int64
	}{
		// Every other record rejected, or every third: each one is
		// dropped.
		{"half rejected", strings.Repeat(kept+dropped, 800), 800, 800},
		{"a third rejected", strings.Repeat(kept+kept+dropped, 800), 800, 800},
		// One in ten: past the warm-up only the probes read, so most
		// rejected records are tokenized.
		{"a tenth rejected", strings.Repeat(strings.Repeat(kept, 9)+dropped, 160), 1, 60},
		// Accepted records first: the probes that meet the rejected ones
		// turn the scan back on within a few of them.
		{"accepted then rejected", strings.Repeat(kept, 1000) + strings.Repeat(dropped, 1000), 800, 1000},
	} {
		tz := NewTokenizerBytes([]byte(c.doc))
		tz.SetSkipper(&filterSkipper{f: f})
		tz.SetFilter(f)
		for {
			if _, err := tz.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		got := tz.SkipStats().SubtreesSkipped
		tz.Release()
		if got < c.lo || got > c.hi {
			t.Errorf("%s: %d records dropped, want %d to %d", c.name, got, c.lo, c.hi)
		}
	}
}
