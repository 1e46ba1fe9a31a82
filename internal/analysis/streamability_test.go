package analysis

import (
	"strings"
	"testing"

	"gcx/internal/xmark"
	"gcx/internal/xqparse"
)

func mustAnalyzeOpts(t *testing.T, src string, opts Options) *Plan {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := AnalyzeWithOptions(q, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return plan
}

// TestStreamabilityXMark pins the lattice class of every query in the
// XMark and NDJSON catalogs — the repo-wide ground truth the property
// tests and gcxd admission control build on.
func TestStreamabilityXMark(t *testing.T) {
	want := map[string]StreamClass{
		// Single-pass pipelines: working set = projected paths.
		"Q1":  BoundedConstant,
		"Q6":  BoundedConstant,
		"Q13": BoundedConstant,
		"J1":  BoundedConstant,
		"J2":  BoundedConstant,
		// not(exists …) blocks until the record closes.
		"Q17": BoundedPerRecord,
		"Q20": BoundedPerRecord,
		"J3":  BoundedPerRecord,
		// Joins re-scan an absolute path per outer binding.
		"Q8": Unbounded,
		"Q9": Unbounded,
		// Whole-input aggregation.
		"Q5":      Unbounded,
		"Q6count": Unbounded,
		"Q20sum":  Unbounded,
	}
	texts := map[string]string{}
	for id, q := range xmark.Queries {
		texts[id] = q.Text
	}
	for id, q := range xmark.NDJSONQueries {
		texts[id] = q.Text
	}
	for id, wantClass := range want {
		src, ok := texts[id]
		if !ok {
			t.Fatalf("query %s missing from the xmark catalogs", id)
		}
		plan := mustAnalyzeOpts(t, src, Options{})
		st := plan.Stream
		if st.Class != wantClass {
			t.Errorf("%s: class = %v, want %v (reason: %s)", id, st.Class, wantClass, st.Reason)
		}
		if st.Reason == "" {
			t.Errorf("%s: empty reason", id)
		}
		if wantClass != Unbounded {
			if st.Bound.ConstNodes <= 0 {
				t.Errorf("%s: bound has no constant term: %+v", id, st.Bound)
			}
			if st.Bound.RecordFactor <= 0 || len(st.Bound.RecordPath.Steps) == 0 {
				t.Errorf("%s: looped bounded query must have a record term, got %s", id, st.Bound)
			}
		}
	}
	// Every catalog query must appear in the expectation table, so new
	// queries cannot land unclassified.
	for id := range texts {
		if _, ok := want[id]; !ok {
			t.Errorf("query %s has no streamability expectation; add it", id)
		}
	}
}

// TestStreamabilityRecordPaths pins the record paths the bounds are
// expressed in — the same cut the shardability analysis partitions at.
func TestStreamabilityRecordPaths(t *testing.T) {
	for _, tc := range []struct {
		id, path string
	}{
		{"Q1", "/site/people/person"},
		{"Q6", "/site/regions/descendant::item"},
		{"Q13", "/site/regions/australia/item"},
		{"Q17", "/site/people/person"},
		{"J1", "/root/record"},
		{"J3", "/root/record"},
	} {
		src := xmark.Queries[tc.id].Text
		if src == "" {
			src = xmark.NDJSONQueries[tc.id].Text
		}
		plan := mustAnalyzeOpts(t, src, Options{})
		if got := plan.Stream.Bound.RecordPath.String(); got != tc.path {
			t.Errorf("%s: record path = %s, want %s", tc.id, got, tc.path)
		}
	}
}

// TestStreamabilityShapes covers the classification rules the XMark
// catalog does not reach.
func TestStreamabilityShapes(t *testing.T) {
	for _, tc := range []struct {
		name, src  string
		opts       Options
		class      StreamClass
		reasonPart string
	}{
		{name: "constant query", src: `<a>{ "hello" }</a>`,
			class: BoundedConstant, reasonPart: "no for-loops"},
		// A root-based exists is unbounded even with the [1] latch: the
		// latch is per context and the witness sign-off is rooted at the
		// document, so one witness per context survives to end of input
		// (measured: peak grows linearly with the record count).
		{name: "top-level exists", src: `if (exists /bib/book) then "y" else "n"`,
			class: Unbounded, reasonPart: "witnesses accumulate until end of input"},
		{name: "top-level path output", src: `<out>{ /bib/book/title }</out>`,
			class: Unbounded, reasonPart: "absolute-path output"},
		{name: "top-level root comparison", src: `if (/bib/book/title = "TCP/IP") then "y" else ()`,
			class: Unbounded, reasonPart: "comparison against the absolute path"},
		{name: "sequential rescan", src: `<out>{ for $a in /bib/book return $a/title, for $b in /bib/article return $b/title }</out>`,
			class: Unbounded, reasonPart: "multiple loops"},
		{name: "record emitted whole", src: `for $r in /root/record return $r`,
			class: BoundedPerRecord, reasonPart: "emitted"},
		{name: "record string compared", src: `for $r in /root/record return if ($r = "x") then "y" else ()`,
			class: BoundedPerRecord, reasonPart: "string value"},
		{name: "unlatched witnesses in record", src: `for $r in /root/record return if (exists $r/a) then "y" else ()`,
			opts:  Options{DisableFirstWitness: true},
			class: BoundedPerRecord, reasonPart: "first-witness pruning disabled"},
		{name: "unlatched witnesses whole input", src: `if (exists /bib/book) then "y" else "n"`,
			opts:  Options{DisableFirstWitness: true},
			class: Unbounded, reasonPart: "witnesses accumulate until end of input"},
		{name: "coarse granularity in record", src: `for $r in /root/record return if ($r/a = "x") then $r/b else ()`,
			opts:  Options{CoarseGranularity: true},
			class: BoundedPerRecord, reasonPart: "coarse-granularity"},
		{name: "paper running example", src: PaperQuery,
			class: BoundedPerRecord, reasonPart: "negated existence"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := mustAnalyzeOpts(t, tc.src, tc.opts)
			st := plan.Stream
			if st.Class != tc.class {
				t.Fatalf("class = %v (reason %q), want %v", st.Class, st.Reason, tc.class)
			}
			if !strings.Contains(st.Reason, tc.reasonPart) {
				t.Errorf("reason %q does not mention %q", st.Reason, tc.reasonPart)
			}
		})
	}
}
