package analysis

import (
	"fmt"
	"strings"
	"testing"

	"gcx/internal/xmark"
	"gcx/internal/xqast"
)

// TestDetectJoinQ8: the canonical XMark Q8 shape is recognized with the
// expected sides and keys.
func TestDetectJoinQ8(t *testing.T) {
	j := mustAnalyze(t, xmark.Queries["Q8"].Text).Join
	if j == nil {
		t.Fatal("Q8 join not detected")
	}
	if got := j.ProbePath.String(); got != "/site/people/person" {
		t.Errorf("probe path = %s", got)
	}
	if got := j.BuildPath.String(); got != "/site/closed_auctions/closed_auction" {
		t.Errorf("build path = %s", got)
	}
	if got := j.ProbeKey.String(); got != "/@id" {
		t.Errorf("probe key = %s", got)
	}
	if got := j.BuildKey.String(); got != "/buyer/@person" {
		t.Errorf("build key = %s", got)
	}
	if j.ProbeHead == nil || j.ProbeLoop == nil || j.BuildHead == nil || j.Then == nil {
		t.Error("incomplete JoinInfo node pointers")
	}
	if j.ProbeVar == j.BuildVar || j.ProbeVar == "" {
		t.Errorf("vars: probe %q build %q", j.ProbeVar, j.BuildVar)
	}
}

// TestDetectJoinQ9: the second catalog join (items ⋈ closed auctions)
// also matches, with a deeper probe path.
func TestDetectJoinQ9(t *testing.T) {
	j := mustAnalyze(t, xmark.Queries["Q9"].Text).Join
	if j == nil {
		t.Fatal("Q9 join not detected")
	}
	if got := j.ProbePath.String(); got != "/site/regions/europe/item" {
		t.Errorf("probe path = %s", got)
	}
	if got := j.BuildPath.String(); got != "/site/closed_auctions/closed_auction" {
		t.Errorf("build path = %s", got)
	}
}

// TestDetectJoinNegatives: near-miss shapes must not be treated as
// joins — the nested-loop path stays authoritative for them.
func TestDetectJoinNegatives(t *testing.T) {
	cases := map[string]string{
		"self-join (same path both sides)": `<out>{
			for $a in /bib/book return
			  for $b in /bib/book return
			    if ($b/price = $a/price) then $b/title else () }</out>`,
		"prefix paths (one side contains the other)": `<out>{
			for $a in /bib/book return
			  for $b in /bib/book/review return
			    if ($b/who = $a/@id) then $b else () }</out>`,
		"non-equality operator": `<out>{
			for $p in /site/people/person return
			  for $t in /site/closed_auctions/closed_auction return
			    if ($t/price >= $p/@id) then $t/price else () }</out>`,
		"literal operand": `<out>{
			for $p in /site/people/person return
			  for $t in /site/closed_auctions/closed_auction return
			    if ($t/buyer/@person = "person0") then $t/price else () }</out>`,
		"then uses the probe variable": `<out>{
			for $p in /site/people/person return
			  for $t in /site/closed_auctions/closed_auction return
			    if ($t/buyer/@person = $p/@id) then $p/name else () }</out>`,
		"two root loops in the probe body": `<out>{
			for $p in /site/people/person return
			  (for $t in /site/closed_auctions/closed_auction return
			    if ($t/buyer/@person = $p/@id) then $t/price else (),
			   for $u in /site/open_auctions/open_auction return $u/bidder) }</out>`,
		"build loop nested under another loop": `<out>{
			for $p in /site/people/person return
			  for $w in $p/watches return
			    for $t in /site/closed_auctions/closed_auction return
			      if ($t/buyer/@person = $p/@id) then $t/price else () }</out>`,
		"build chain leaves its own variable": `<out>{
			for $p in /a/p return
			  for $b in /a/q return
			    for $c in $p/z return
			      if ($c/k = $p/k) then $c else () }</out>`,
		"build body without a key test": `<out>{
			for $p in /site/people/person return
			  for $t in /site/closed_auctions/closed_auction return $t/price }</out>`,
		"else branch not empty": `<out>{
			for $p in /site/people/person return
			  for $t in /site/closed_auctions/closed_auction return
			    if ($t/buyer/@person = $p/@id) then $t/price else $t/seller }</out>`,
	}
	for name, src := range cases {
		if mustAnalyze(t, src).Join != nil {
			t.Errorf("%s: incorrectly detected as a join", name)
		}
	}
}

// TestDetectJoinStreamabilityUnchanged: detection does not alter the
// honest streamability verdict — the build side is still O(input).
func TestDetectJoinStreamabilityUnchanged(t *testing.T) {
	p := mustAnalyze(t, xmark.Queries["Q8"].Text)
	if p.Stream.Class != Unbounded {
		t.Errorf("Q8 class = %v, want Unbounded", p.Stream.Class)
	}
}

// TestDetectJoinKeyRelease: the join's release list holds the hoisted
// sign-off of every build-side role — the key's, THEN's and, last, the
// build binding role — with paths relative to the build variable; their
// hoisted statements stay in the plan, which the nested-loop evaluation
// runs. A key that THEN also outputs has two roles there, both released;
// a key that is an attribute of the tuple itself has no role.
func TestDetectJoinKeyRelease(t *testing.T) {
	release := func(p *Plan) string {
		var parts []string
		for _, so := range p.Join.Release {
			if so.Base != p.Join.BuildVar || so.Slot != p.Join.BuildSlot {
				t.Errorf("%s released on $%s (slot %d)", p.Roles[so.Role].Name(), so.Base, so.Slot)
			}
			r := p.Roles[so.Role]
			parts = append(parts, fmt.Sprintf("%s %s %q", r.Kind, so.Path.RelString(), r.Provenance))
		}
		return strings.Join(parts, "; ")
	}

	p := mustAnalyze(t, xmark.Queries["Q8"].Text)
	j := p.Join
	if r := p.Roles[j.BuildRole]; r.Kind != RoleBinding || r.Path.String() != "/site/closed_auctions/closed_auction" {
		t.Errorf("build role %s: %v %s", r.Name(), r.Kind, r.Path)
	}
	want := `operand buyer "operand $t/buyer/@person"; ` +
		`output price/descendant-or-self::node() "output $t/price"; ` +
		`binding . "for $t in $v4/closed_auction"`
	if got := release(p); got != want {
		t.Errorf("Q8 release list\n got %s\nwant %s", got, want)
	}
	if last := j.Release[len(j.Release)-1]; last.Role != j.BuildRole {
		t.Errorf("the binding role %d is not released last: %+v", j.BuildRole, last)
	}
	for _, so := range j.Release {
		hoisted := false
		for _, s := range statements(p.Rewritten.Body) {
			if s, ok := s.(*xqast.SignOff); ok && s.Role == so.Role {
				hoisted = true
			}
		}
		if !hoisted {
			t.Errorf("the top-level sign-off of r%d left the plan", so.Role+1)
		}
	}

	p = mustAnalyze(t, `<out>{ for $p in /root/ps/p return
		for $b in /root/bs/b return if ($b/k = $p/k) then $b/k else () }</out>`)
	want = `operand k/descendant-or-self::node() "operand $b/k"; output k/descendant-or-self::node() "output $b/k"; binding . "for $b in $v4/b"`
	if got := release(p); got != want {
		t.Errorf("THEN outputs the key: release list\n got %s\nwant %s", got, want)
	}
	p = mustAnalyze(t, `<out>{ for $p in /root/ps/p return
		for $b in /root/bs/b return if ($b/@id = $p/@id) then $b/v else () }</out>`)
	want = `output v/descendant-or-self::node() "output $b/v"; binding . "for $b in $v4/b"`
	if got := release(p); got != want {
		t.Errorf("attribute key of the tuple: release list\n got %s\nwant %s", got, want)
	}
}
