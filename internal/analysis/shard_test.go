package analysis

import (
	"strings"
	"testing"

	"gcx/internal/xqparse"
)

func shardableOf(t *testing.T, src string) (*ShardInfo, string) {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := Analyze(q)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return Shardable(plan)
}

func TestShardableQ1Style(t *testing.T) {
	info, reason := shardableOf(t, `<result>{
	  for $p in /site/people/person return
	    if ($p/@id = "person0") then $p/name else ()
	}</result>`)
	if info == nil {
		t.Fatalf("not shardable: %s", reason)
	}
	if got := info.PartitionPath.String(); got != "/site/people/person" {
		t.Fatalf("partition path = %s", got)
	}
	if string(info.Prefix) != "<result>" || string(info.Suffix) != "</result>" {
		t.Fatalf("wrapper = %q … %q", info.Prefix, info.Suffix)
	}
	if info.Inner == nil || len(info.Inner.Roles) == 0 {
		t.Fatal("inner plan missing")
	}
}

func TestShardableDescendantStopsPath(t *testing.T) {
	// Q6 shape: the descendant step cannot join the partition path, so
	// the cut stops at /site/regions.
	info, reason := shardableOf(t, `<result>{
	  for $r in /site/regions return
	    for $i in $r//item return <item>{ $i/name }</item>
	}</result>`)
	if info == nil {
		t.Fatalf("not shardable: %s", reason)
	}
	if got := info.PartitionPath.String(); got != "/site/regions" {
		t.Fatalf("partition path = %s", got)
	}
}

func TestShardableWildcardStep(t *testing.T) {
	info, reason := shardableOf(t, `<r>{ for $i in /site/regions/*/item return $i/name }</r>`)
	if info == nil {
		t.Fatalf("not shardable: %s", reason)
	}
	if got := info.PartitionPath.String(); got != "/site/regions/*/item" {
		t.Fatalf("partition path = %s", got)
	}
}

func TestShardableBodyReferencesOuterVar(t *testing.T) {
	// The body reads $b (the book), so records must be whole books even
	// though the chain syntactically extends to /bib/book/author.
	info, reason := shardableOf(t, `<r>{
	  for $b in /bib/book return
	    for $a in $b/author return ($b/title, $a)
	}</r>`)
	if info == nil {
		t.Fatalf("not shardable: %s", reason)
	}
	if got := info.PartitionPath.String(); got != "/bib/book" {
		t.Fatalf("partition path = %s, want cut at the referenced level", got)
	}
}

func TestShardableRootLoop(t *testing.T) {
	// The paper's running example iterates the root element itself —
	// partitionable, if degenerately (one record).
	info, reason := shardableOf(t, `<r> {
	for $bib in /bib return
	(for $x in $bib/* return
	   if (not(exists $x/price)) then $x else (),
	 for $b in $bib/book return $b/title)
	} </r>`)
	if info == nil {
		t.Fatalf("not shardable: %s", reason)
	}
	if got := info.PartitionPath.String(); got != "/bib" {
		t.Fatalf("partition path = %s", got)
	}
}

// TestShardableJoin: a detected join runs sequentially — its build
// partners stay buffered until the probe loop ends, so no record's
// output is final on its own — and says so.
func TestShardableJoin(t *testing.T) {
	info, reason := shardableOf(t, `<result>{
	  for $p in /site/people/person return
	    for $t in /site/closed_auctions/closed_auction return
	      if ($t/buyer/@person = $p/@id) then $t/price else ()
	}</result>`)
	if info != nil {
		t.Fatalf("join plan shardable on %s", info.PartitionPath)
	}
	if want := "detected join: no probe output is final before the build side is complete"; reason != want {
		t.Fatalf("reason = %q, want %q", reason, want)
	}
}

func TestNotShardable(t *testing.T) {
	cases := []struct {
		name, src, reasonPart string
	}{
		{"join without shared ancestor", `<r>{
		  for $p in /people/person return
		    for $t in /auctions/auction return
		      if ($t/buyer = $p/name) then $t/price else ()
		}</r>`, "detected join"},
		{"aggregation", `<r>{ count(/site/regions//item) }</r>`, "aggregation"},
		{"constant", `<r>hello</r>`, "no outer for-loop"},
		{"whole-doc path", `<r>{ /site/people }</r>`, "whole document"},
		{"two loops", `<r>{ for $a in /s/a return $a, for $b in /s/b return $b }</r>`, "multiple dynamic"},
		{"descendant first step", `<r>{ for $i in //item return $i }</r>`, "non-child"},
	}
	for _, c := range cases {
		info, reason := shardableOf(t, c.src)
		if info != nil {
			t.Fatalf("%s: unexpectedly shardable on %s", c.name, info.PartitionPath)
		}
		if !strings.Contains(reason, c.reasonPart) {
			t.Fatalf("%s: reason %q does not mention %q", c.name, reason, c.reasonPart)
		}
	}
}

func TestShardableWrapperAttributes(t *testing.T) {
	info, reason := shardableOf(t, `<r kind="x&y" n='2'>{ for $b in /bib/book return $b }</r>`)
	if info == nil {
		t.Fatalf("not shardable: %s", reason)
	}
	// The wrapper must serialize exactly like the engine's serializer
	// (attribute escaping included).
	if string(info.Prefix) != `<r kind="x&amp;y" n="2">` {
		t.Fatalf("prefix = %q", info.Prefix)
	}
	if string(info.Suffix) != `</r>` {
		t.Fatalf("suffix = %q", info.Suffix)
	}
}

func TestShardableInnerPlanInheritsOptions(t *testing.T) {
	q, err := xqparse.Parse(`<r>{ for $x in /bib/* return if (exists $x/price) then $x/title else () }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := AnalyzeWithOptions(q, Options{DisableFirstWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	info, reason := Shardable(plan)
	if info == nil {
		t.Fatalf("not shardable: %s", reason)
	}
	if !info.Inner.Opts.DisableFirstWitness {
		t.Fatal("inner plan lost the analysis options")
	}
	for _, r := range info.Inner.Roles {
		for _, s := range r.Path.Steps {
			if s.FirstOnly {
				t.Fatalf("inner role %s kept a [1] predicate despite DisableFirstWitness", r.Path)
			}
		}
	}
}
