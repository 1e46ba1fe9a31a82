package xmark

import (
	"io"
	"slices"
	"strings"
	"testing"

	"gcx/internal/analysis"
	"gcx/internal/xmltok"
	"gcx/internal/xqparse"
)

func TestGenerateWellFormed(t *testing.T) {
	doc, st, err := GenerateString(Config{TargetBytes: 200 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tz := xmltok.NewTokenizer(strings.NewReader(doc))
	elements := map[string]int{}
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("generated document malformed: %v", err)
		}
		if tok.Kind == xmltok.StartElement {
			elements[tok.Name]++
		}
	}
	for _, section := range []string{"site", "regions", "categories", "catgraph", "people", "open_auctions", "closed_auctions"} {
		if elements[section] != 1 {
			t.Errorf("section %s count = %d, want 1", section, elements[section])
		}
	}
	for _, c := range continents {
		if elements[c] != 1 {
			t.Errorf("continent %s missing", c)
		}
	}
	if elements["person"] != st.Persons || st.Persons == 0 {
		t.Errorf("persons: elements=%d stats=%d", elements["person"], st.Persons)
	}
	if elements["item"] != st.Items || st.Items == 0 {
		t.Errorf("items: elements=%d stats=%d", elements["item"], st.Items)
	}
	if elements["closed_auction"] != st.ClosedAuctions || st.ClosedAuctions == 0 {
		t.Errorf("closed auctions: elements=%d stats=%d", elements["closed_auction"], st.ClosedAuctions)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := GenerateString(Config{TargetBytes: 100 << 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := GenerateString(Config{TargetBytes: 100 << 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same seed must give identical documents")
	}
	c, _, err := GenerateString(Config{TargetBytes: 100 << 10, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds must differ")
	}
}

func TestGenerateSizeTargeting(t *testing.T) {
	for _, target := range []int64{256 << 10, 1 << 20, 4 << 20} {
		_, st, err := GenerateString(Config{TargetBytes: target, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(st.Bytes) / float64(target)
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("target %d: generated %d bytes (ratio %.2f)", target, st.Bytes, ratio)
		}
	}
}

func TestGenerateEntityRatios(t *testing.T) {
	_, st, err := GenerateString(Config{TargetBytes: 2 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// XMark-ish proportions: persons > items > open > closed.
	if !(st.Persons > st.Items && st.Items > st.OpenAuctions && st.OpenAuctions > st.ClosedAuctions) {
		t.Errorf("entity ratios off: %+v", st)
	}
	// person0 exists (Q1's target).
	doc, _, _ := GenerateString(Config{TargetBytes: 64 << 10, Seed: 3})
	if !strings.Contains(doc, `person id="person0"`) {
		t.Error("person0 missing")
	}
	if !strings.Contains(doc, "<australia>") {
		t.Error("australia missing (Q13's target)")
	}
}

// TestQueriesCompile: every catalog query parses and analyzes.
func TestQueriesCompile(t *testing.T) {
	for id, q := range Queries {
		parsed, err := xqparse.Parse(q.Text)
		if err != nil {
			t.Errorf("%s does not parse: %v", id, err)
			continue
		}
		plan, err := analysis.Analyze(parsed)
		if err != nil {
			t.Errorf("%s does not analyze: %v", id, err)
			continue
		}
		if plan.UsesAggregation != q.UsesAggregation {
			t.Errorf("%s UsesAggregation flag = %v, catalog says %v", id, plan.UsesAggregation, q.UsesAggregation)
		}
		if len(plan.Roles) < 2 {
			t.Errorf("%s derived only %d roles", id, len(plan.Roles))
		}
	}
}

func TestQueryIDsOrder(t *testing.T) {
	ids := QueryIDs()
	if len(ids) != len(Queries) {
		t.Fatalf("QueryIDs lists %d of %d", len(ids), len(Queries))
	}
	want := []string{"Q1", "Q6", "Q8", "Q9", "Q13", "Q20"}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("order[%d] = %s, want %s", i, ids[i], id)
		}
	}
}

func TestBibDocumentTokenCount(t *testing.T) {
	doc := BibDocument(Fig3bKinds())
	tz := xmltok.NewTokenizer(strings.NewReader(doc))
	n := 0
	for {
		_, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 82 {
		t.Fatalf("bib document has %d tokens, paper says 82", n)
	}
	if len(Fig3cKinds()) != 10 || Fig3cKinds()[9] != "article" {
		t.Fatal("Fig3c kinds wrong")
	}
}

// auctionOrder is the content ordering of the generated documents: per
// parent, the child elements it may hold, in the order they must come.
// Children may repeat or be left out; parents not listed hold anything.
var auctionOrder = map[string][]string{
	"site": {"regions", "categories", "catgraph", "people",
		"open_auctions", "closed_auctions"},
	"regions": {"africa", "asia", "australia", "europe", "namerica", "samerica"},
	"africa":  {"item"}, "asia": {"item"}, "australia": {"item"},
	"europe": {"item"}, "namerica": {"item"}, "samerica": {"item"},
	"item": {"location", "quantity", "name", "payment", "description",
		"shipping", "incategory", "mailbox"},
	"description": {"parlist", "text"},
	"parlist":     {"listitem"},
	"listitem":    {"text"},
	"mailbox":     {"mail"},
	"mail":        {"from", "to", "date", "text"},
	"categories":  {"category"},
	"category":    {"name", "description"},
	"catgraph":    {"edge"},
	"people":      {"person"},
	"person": {"name", "emailaddress", "phone", "address", "creditcard",
		"profile", "homepage", "watches"},
	"address":       {"street", "city", "country", "zipcode"},
	"profile":       {"education", "business"},
	"watches":       {"watch"},
	"open_auctions": {"open_auction"},
	"open_auction": {"initial", "bidder", "current", "itemref", "seller",
		"annotation", "quantity", "type", "interval"},
	"bidder":          {"date", "time", "personref", "increase"},
	"annotation":      {"author", "description"},
	"interval":        {"start", "end"},
	"closed_auctions": {"closed_auction"},
	"closed_auction": {"seller", "buyer", "itemref", "price", "date",
		"quantity", "type", "annotation"},
}

// TestGeneratorConformsToSchema: the generator's output respects the
// declared content ordering (auctionOrder), the property
// order-dependent experiments rely on.
func TestGeneratorConformsToSchema(t *testing.T) {
	doc, _, err := GenerateString(Config{TargetBytes: 512 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		name string
		last int // position of the last child seen, -1 before the first
	}
	stack := []frame{{}}
	tz := xmltok.NewTokenizer(strings.NewReader(doc))
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatalf("generated document malformed: %v", err)
		}
		switch tok.Kind {
		case xmltok.StartElement:
			top := &stack[len(stack)-1]
			if kids, ok := auctionOrder[top.name]; ok {
				pos := slices.Index(kids, tok.Name)
				if pos < 0 || pos < top.last {
					t.Fatalf("token %d: <%s> inside <%s> is out of the declared order %v",
						tz.TokenCount(), tok.Name, top.name, kids)
				}
				top.last = pos
			}
			stack = append(stack, frame{name: tok.Name, last: -1})
		case xmltok.EndElement:
			stack = stack[:len(stack)-1]
		}
	}
}
