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
		table.Add(keys, []join.Op{})
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

func TestCaptureReplay(t *testing.T) {
	c := join.NewCapture()
	c.StartElement("r", []event.Attr{{Name: "id", Value: "1"}})
	c.Text("head")
	mark := c.Mark()
	c.Text("tail")
	c.EndElement("r")
	if c.BytesWritten() != 0 {
		t.Error("a capture writes no bytes; they count when the events replay")
	}
	ops := c.Take()
	if len(ops) != 4 || mark != 2 || c.Mark() != 0 {
		t.Fatalf("%d ops, mark %d, %d left after Take", len(ops), mark, c.Mark())
	}

	table := join.NewTable()
	table.Add([]string{"k"}, ops[mark:])
	var whole, payload recorder
	join.Replay(ops, &whole)
	join.Replay(table.Payload(0), &payload)
	if whole.String() != `<r[{id 1}]>"head""tail"</r>` || payload.String() != `"tail"</r>` {
		t.Fatalf("replayed %s and %s", whole.String(), payload.String())
	}
}

const joinQuery = `<out>{ for $p in /root/ps/p return
	<hit>{ $p/n, for $b in /root/bs/b return if ($b/k = $p/k) then $b/v else () }</hit> }</out>`

// TestJoinKeysAreDecodedValues: keys are compared as the tokenizer's
// decoded string values, so an entity reference, a character reference
// and a CDATA section spelling the same text all join — and the operator
// agrees with nested-loop evaluation byte for byte.
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
	nested, _, err := q.ExecuteString(doc, gcx.Options{DisableJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if nested != got {
		t.Errorf("nested-loop evaluation disagrees:\n%s", nested)
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
