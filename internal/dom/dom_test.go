package dom

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gcx/internal/xmltok"
	"gcx/internal/xpath"
)

const testDoc = `<root><a id="1">x<b>y</b></a><a id="2"><b/><c>z</c></a><d><a id="3"/></d></root>`

func parseString(doc string) (*Document, error) {
	tz := xmltok.NewTokenizer(strings.NewReader(doc))
	defer tz.Release()
	return ParseSource(context.Background(), tz, 0)
}

func parse(t *testing.T, doc string) *Document {
	t.Helper()
	d, err := parseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseCounts(t *testing.T) {
	d := parse(t, testDoc)
	// elements: root,a,b,a,b,c,d,a = 8; texts: x,y,z = 3
	if d.Nodes != 11 {
		t.Fatalf("Nodes = %d, want 11", d.Nodes)
	}
	if d.Tokens != 19 {
		t.Fatalf("Tokens = %d, want 19", d.Tokens)
	}
	if d.Bytes <= 0 {
		t.Fatal("Bytes not estimated")
	}
	if d.Root.Kind != Root || len(d.Root.Children) != 1 {
		t.Fatal("root structure wrong")
	}
}

func TestParseError(t *testing.T) {
	if _, err := parseString(`<a><b></a>`); err == nil {
		t.Fatal("malformed input must error")
	}
}

func TestSelectChildAndWildcard(t *testing.T) {
	d := parse(t, testDoc)
	as := Select(d.Root, xpath.Path{Steps: []xpath.Step{
		xpath.ChildStep("root"), xpath.ChildStep("a")}})
	if len(as) != 2 {
		t.Fatalf("got %d /root/a, want 2", len(as))
	}
	all := Select(d.Root, xpath.Path{Steps: []xpath.Step{
		xpath.ChildStep("root"), xpath.WildcardStep()}})
	if len(all) != 3 {
		t.Fatalf("got %d /root/*, want 3", len(all))
	}
}

func TestSelectDescendantDocOrderAndDedup(t *testing.T) {
	d := parse(t, testDoc)
	as := Select(d.Root, xpath.Path{Steps: []xpath.Step{
		{Axis: xpath.Descendant, Test: xpath.Test{Kind: xpath.TestName, Name: "a"}}}})
	if len(as) != 3 {
		t.Fatalf("got %d //a, want 3", len(as))
	}
	ids := []string{}
	for _, n := range as {
		id, _ := n.Attr("id")
		ids = append(ids, id)
	}
	if strings.Join(ids, ",") != "1,2,3" {
		t.Fatalf("doc order violated: %v", ids)
	}
	// dedup through overlapping descendant sources
	dd := Select(d.Root, xpath.Path{Steps: []xpath.Step{
		{Axis: xpath.DescendantOrSelf, Test: xpath.Test{Kind: xpath.TestNode}},
		{Axis: xpath.Descendant, Test: xpath.Test{Kind: xpath.TestName, Name: "b"}}}})
	if len(dd) != 2 {
		t.Fatalf("dedup failed: got %d b nodes, want 2", len(dd))
	}
}

func TestSelectFirstOnly(t *testing.T) {
	d := parse(t, testDoc)
	first := Select(d.Root, xpath.Path{Steps: []xpath.Step{
		xpath.ChildStep("root"),
		{Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestName, Name: "a"}, FirstOnly: true}}})
	if len(first) != 1 {
		t.Fatalf("got %d, want 1", len(first))
	}
	if id, _ := first[0].Attr("id"); id != "1" {
		t.Fatalf("first a has id %s", id)
	}
}

func TestSelectText(t *testing.T) {
	d := parse(t, testDoc)
	texts := Select(d.Root, xpath.Path{Steps: []xpath.Step{
		xpath.ChildStep("root"), xpath.ChildStep("a"),
		{Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestText}}}})
	if len(texts) != 1 || texts[0].Text != "x" {
		t.Fatalf("text selection wrong: %v", texts)
	}
}

func TestStringValue(t *testing.T) {
	d := parse(t, testDoc)
	a1 := Select(d.Root, xpath.Path{Steps: []xpath.Step{
		xpath.ChildStep("root"),
		{Axis: xpath.Child, Test: xpath.Test{Kind: xpath.TestName, Name: "a"}, FirstOnly: true}}})[0]
	if got := a1.StringValue(); got != "xy" {
		t.Fatalf("StringValue = %q, want xy", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	d := parse(t, testDoc)
	var out bytes.Buffer
	s := xmltok.NewSerializer(&out)
	Serialize(d.Root, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// the serializer canonicalizes self-closing tags to open/close pairs
	want := `<root><a id="1">x<b>y</b></a><a id="2"><b></b><c>z</c></a><d><a id="3"></a></d></root>`
	if out.String() != want {
		t.Fatalf("round trip:\n got %s\nwant %s", out.String(), want)
	}
}
