package analysis

import (
	"testing"

	"gcx/internal/xmark"
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
