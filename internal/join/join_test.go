package join_test

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/event"
	"gcx/internal/join"
)

// recorder is an event.Sink that renders the events it receives, so a
// replay can be compared with what was captured.
type recorder struct{ strings.Builder }

func (r *recorder) StartElement(name string, attrs []event.Attr) {
	fmt.Fprintf(r, "<%s%v>", name, attrs)
}
func (r *recorder) EndElement(name string) { fmt.Fprintf(r, "</%s>", name) }
func (r *recorder) Text(text string)       { fmt.Fprintf(r, "%q", text) }
func (r *recorder) Flush() error           { return nil }
func (r *recorder) BytesWritten() int64    { return int64(r.Len()) }
func (r *recorder) Release()               {}

func TestTableMatch(t *testing.T) {
	// Build tuples in document order; the index is the tuple number.
	build := [][]string{
		0: {"a"},
		1: {"b"},
		2: {"a", "b"},     // multi-valued key
		3: {"c", "c"},     // duplicate value within one tuple
		4: {},             // no key value at all: matches nothing
		5: {""},           // the empty string is a value like any other
		6: {"b", "", "a"}, // several values, one of them empty
	}
	table := join.NewTable()
	for i, keys := range build {
		table.Add(keys, nil)
		if table.Len() != i+1 {
			t.Fatalf("Len = %d after %d tuples", table.Len(), i+1)
		}
	}
	cases := []struct {
		name  string
		probe []string
		want  []int
	}{
		{"single value", []string{"a"}, []int{0, 2, 6}},
		{"no such value", []string{"z"}, nil},
		{"no value", nil, nil},
		{"empty string", []string{""}, []int{5, 6}},
		{"duplicate build value indexed once", []string{"c"}, []int{3}},
		{"two values: union, each tuple once", []string{"a", "b"}, []int{0, 1, 2, 6}},
		{"build document order whatever the probe order", []string{"b", "a"}, []int{0, 1, 2, 6}},
		{"duplicate probe value", []string{"c", "c"}, []int{3}},
		{"miss and hit", []string{"z", "c", ""}, []int{3, 5, 6}},
	}
	for _, c := range cases {
		got := table.Match(c.probe)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Match(%q) = %v, want %v", c.name, c.probe, got, c.want)
		}
	}
}

// TestTablePayloadAfterGrowth: a payload is a range of the table's one
// slab, so the early tuples' must read the same after many later Adds
// have reallocated it.
func TestTablePayloadAfterGrowth(t *testing.T) {
	var c join.Capture
	table := join.NewTable()
	const tuples = 1000
	for i := range tuples {
		base := c.Mark()
		c.StartElement("v", []event.Attr{{Name: "i", Value: fmt.Sprint(i)}})
		c.Text(fmt.Sprint("t", i))
		c.EndElement("v")
		table.Add([]string{fmt.Sprint("k", i%8)}, c.Ops(base, c.Mark()))
		c.Truncate(base)
	}
	for _, i := range []int{0, 1, 2, 500, tuples - 1} {
		var got recorder
		c.Replay(table.Payload(i), &got)
		if want := fmt.Sprintf(`<v[{i %d}]>"t%d"</v>`, i, i); got.String() != want {
			t.Errorf("Payload(%d) replays %s, want %s", i, got.String(), want)
		}
	}
	if n := len(table.Match([]string{"k3"})); n != tuples/8 {
		t.Errorf("k3 matches %d tuples, want %d", n, tuples/8)
	}
}

// TestTableAddNilPayload: gcxperf's join.table_ms adds keys with a nil
// payload (DESIGN.md §14); such a tuple matches and replays nothing.
func TestTableAddNilPayload(t *testing.T) {
	table := join.NewTable()
	table.Add([]string{"a"}, nil)
	table.Add([]string{"b"}, nil)
	table.Add([]string{"a"}, nil)
	if got := table.Match([]string{"a"}); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Match(a) = %v, want [0 2]", got)
	}
	if table.Len() != 3 || len(table.Payload(1)) != 0 {
		t.Errorf("Len %d, Payload(1) %v", table.Len(), table.Payload(1))
	}
}

func TestCaptureReplay(t *testing.T) {
	var c join.Capture
	attrs := []event.Attr{{Name: "id", Value: "1"}}
	c.StartElement("r", attrs)
	attrs[0].Value = "reused" // a Sink's attrs are valid only for the call
	c.Text("head")
	mark := c.Mark()
	c.StartElement("v", []event.Attr{{Name: "a", Value: "x"}})
	c.Text("tail")
	c.EndElement("v")
	c.EndElement("r")
	end := c.Mark()
	if c.BytesWritten() != 0 {
		t.Error("a capture writes no bytes; they count when the events replay")
	}
	if mark != 2 || end != 6 {
		t.Fatalf("mark %d, end %d", mark, end)
	}

	table := join.NewTable()
	table.Add([]string{"k"}, c.Ops(mark, end))
	// The table holds a copy: what the capture records after a Truncate
	// overwrites its events, not the payload's, attributes included.
	c.Truncate(mark)
	c.StartElement("w", []event.Attr{{Name: "b", Value: "y"}})
	c.EndElement("w")
	var head, payload, rest recorder
	c.Replay(c.Ops(0, mark), &head)
	c.Replay(table.Payload(0), &payload)
	c.Replay(c.Ops(mark, c.Mark()), &rest)
	if head.String() != `<r[{id 1}]>"head"` || payload.String() != `<v[{a x}]>"tail"</v></r>` || rest.String() != `<w[{b y}]></w>` {
		t.Fatalf("replayed %s, %s and %s", head.String(), payload.String(), rest.String())
	}
}

const joinQuery = `<out>{ for $p in /root/ps/p return
	<hit>{ $p/n, for $b in /root/bs/b return if ($b/k = $p/k) then $b/v else () }</hit> }</out>`

// TestJoinKeysAreDecodedValues: keys are compared as the tokenizer's
// decoded string values, so an entity reference, a character reference
// and a CDATA section spelling the same text all join — and the operator
// agrees with the DOM engine, the independent oracle, byte for byte.
func TestJoinKeysAreDecodedValues(t *testing.T) {
	doc := `<root><ps>` +
		`<p><n>amp</n><k>A&amp;B</k></p>` +
		`<p><n>multi</n><k>x</k><k>&lt;tag&gt;</k></p>` +
		`<p><n>none</n></p>` +
		`</ps><bs>` +
		`<b><k>A&#38;B</k><v>charref</v></b>` +
		`<b><k><![CDATA[<tag>]]></k><v>cdata</v></b>` +
		`<b><k>A&amp;amp;B</k><v>double-escaped: a different value</v></b>` +
		`<b><k>x</k><k>A&#x26;B</k><v>two keys</v></b>` +
		`</bs></root>`
	q := gcx.MustCompile(joinQuery)
	got, res, err := q.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `<out>` +
		`<hit><n>amp</n><v>charref</v><v>two keys</v></hit>` +
		`<hit><n>multi</n><v>cdata</v><v>two keys</v></hit>` +
		`<hit><n>none</n></hit>` +
		`</out>`
	if got != want {
		t.Errorf("join output\n got %s\nwant %s", got, want)
	}
	if res.JoinProbeTuples != 3 || res.JoinBuildTuples != 4 || res.JoinMatches != 4 {
		t.Errorf("join counters probe=%d build=%d matches=%d, want 3/4/4",
			res.JoinProbeTuples, res.JoinBuildTuples, res.JoinMatches)
	}
	oracle, _, err := q.ExecuteString(doc, gcx.Options{Engine: gcx.EngineDOM})
	if err != nil {
		t.Fatal(err)
	}
	if oracle != got {
		t.Errorf("the DOM engine disagrees:\n%s", oracle)
	}
}

// TestBudgetBreachMidProbeKeepsJoinStats: a budget that trips while the
// probe side is still streaming returns the groups captured up to then.
// (The root package's TestJoinBudgetPartialStats trips in the build
// section, after the whole probe side.)
func TestBudgetBreachMidProbeKeepsJoinStats(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<root><ps>")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&doc, "<p><n>n%d</n><k>k%d</k></p>", i, i)
	}
	// The eleventh probe record alone is larger than the budget.
	doc.WriteString("<p><n>big</n>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&doc, "<k>k%d</k>", i)
	}
	doc.WriteString("</p></ps><bs><b><k>k1</k><v>v</v></b></bs></root>")

	q := gcx.MustCompile(joinQuery)
	res, err := q.ExecuteBytes([]byte(doc.String()), io.Discard, gcx.Options{MaxBufferedNodes: 30})
	if !errors.Is(err, gcx.ErrBufferBudget) {
		t.Fatalf("want ErrBufferBudget, got %v", err)
	}
	if res == nil {
		t.Fatal("budget breach returned no partial Result")
	}
	if res.JoinProbeTuples != 10 || res.JoinBuildTuples != 0 || res.JoinMatches != 0 {
		t.Errorf("partial join counters probe=%d build=%d matches=%d, want 10/0/0",
			res.JoinProbeTuples, res.JoinBuildTuples, res.JoinMatches)
	}
	if res.PeakBufferedNodes > 31 {
		t.Errorf("peak %d is more than one node past the budget of 30", res.PeakBufferedNodes)
	}
}

// TestTableResetKeepsCapacity: a reset table is empty, and refilling it
// with a build side no larger than the last — keys, entries, payloads
// and the index's map — allocates nothing.
func TestTableResetKeepsCapacity(t *testing.T) {
	var c join.Capture
	c.StartElement("v", nil)
	c.Text("x")
	c.EndElement("v")
	payload := c.Ops(0, c.Mark())
	keys := make([][]string, 500)
	for i := range keys {
		keys[i] = []string{fmt.Sprint("k", i%50), fmt.Sprint("k", i%7)}
	}
	var table join.Table
	fill := func() {
		table.Reset()
		for _, k := range keys {
			table.Add(k, payload)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(5, fill); allocs != 0 {
		t.Errorf("refilling a reset table allocates %.0f times", allocs)
	}
	want := 0
	for i := range keys {
		if i%50 == 3 || i%7 == 3 {
			want++
		}
	}
	if got := len(table.Match([]string{"k3"})); table.Len() != len(keys) || got != want {
		t.Errorf("Len %d, k3 matches %d tuples, want %d", table.Len(), got, want)
	}
	table.Reset()
	if table.Len() != 0 || len(table.Match([]string{"k3"})) != 0 {
		t.Errorf("a reset table holds %d tuples", table.Len())
	}
}
