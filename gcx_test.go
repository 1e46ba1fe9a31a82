package gcx_test

import (
	"strings"
	"testing"

	"gcx"
	"gcx/internal/analysis"
	"gcx/internal/xmark"
)

func TestPublicQuickstart(t *testing.T) {
	q, err := gcx.Compile(`<out>{ for $b in /bib/book return $b/title }</out>`)
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := q.ExecuteString(
		`<bib><book><title>A</title></book><book><title>B</title></book></bib>`,
		gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out != `<out><title>A</title><title>B</title></out>` {
		t.Fatalf("output = %q", out)
	}
	if res.PeakBufferedNodes == 0 || res.FinalBufferedNodes != 0 {
		t.Fatalf("stats off: %+v", res)
	}
	if res.Duration <= 0 {
		t.Fatal("duration not measured")
	}
}

func TestPublicRolesAndExplain(t *testing.T) {
	q := gcx.MustCompile(xmark.PaperQuery)
	roles := q.Roles()
	if len(roles) != 7 {
		t.Fatalf("paper example must have 7 roles, got %d", len(roles))
	}
	if roles[3].Name != "r4" || roles[3].Path != "/bib/*/price[1]" {
		t.Fatalf("r4 = %+v", roles[3])
	}
	if !strings.Contains(q.Explain(), "signOff($bib, r2, prune)") {
		t.Fatal("Explain missing rewritten query")
	}
	if q.Report().UsesAggregation {
		t.Fatal("paper example does not use count()")
	}
}

func TestPublicEngineSelection(t *testing.T) {
	doc := xmark.BibDocument(xmark.Fig3cKinds())
	q := gcx.MustCompile(xmark.PaperQuery)

	var outs []string
	var peaks []int64
	for _, eng := range []gcx.Engine{gcx.EngineGCX, gcx.EngineProjectionOnly, gcx.EngineDOM} {
		out, res, err := q.ExecuteString(doc, gcx.Options{Engine: eng})
		if err != nil {
			t.Fatalf("engine %d: %v", eng, err)
		}
		outs = append(outs, out)
		peaks = append(peaks, res.PeakBufferedNodes)
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Fatalf("engines disagree: %v", outs)
	}
	// GCX buffers least; DOM buffers the whole document (41 nodes).
	if !(peaks[0] < peaks[1] || peaks[0] < peaks[2]) {
		t.Fatalf("GCX peak %d should undercut baselines %d/%d", peaks[0], peaks[1], peaks[2])
	}
	if peaks[2] != 41 {
		t.Fatalf("DOM peak = %d, want 41 (whole document)", peaks[2])
	}
}

func TestPublicSeriesRecording(t *testing.T) {
	q := gcx.WithoutSkip(gcx.MustCompile(xmark.PaperQuery))
	_, res, err := q.ExecuteString(xmark.BibDocument(xmark.Fig3cKinds()),
		gcx.Options{RecordEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 82 {
		t.Fatalf("series has %d points, want 82", len(res.Series))
	}
	// the paper's checkpoint: 23 nodes at </bib>
	if res.Series[81].Nodes != 23 {
		t.Fatalf("nodes at </bib> = %d, want 23", res.Series[81].Nodes)
	}
}

func TestPublicCompileErrors(t *testing.T) {
	if _, err := gcx.Compile(`for $x in`); err == nil {
		t.Fatal("syntax error not reported")
	}
	if _, err := gcx.Compile(`$unbound/name`); err == nil {
		t.Fatal("analysis error not reported")
	}
}

// TestAggregationNeedsNoOptIn: aggregation is part of the compiled
// plan, not a run option — sum(/a/b) runs under zero Options on the gcx
// engine, and the projection and DOM engines give identical output.
func TestAggregationNeedsNoOptIn(t *testing.T) {
	q := gcx.MustCompile(`<n>{ sum(/a/b) }</n>`)
	if !q.Report().UsesAggregation {
		t.Fatal("sum() not reported as aggregation")
	}
	const doc = `<a><b>1</b><b>2.5</b></a>`
	for _, e := range []gcx.Engine{gcx.EngineGCX, gcx.EngineProjectionOnly, gcx.EngineDOM} {
		out, _, err := q.ExecuteString(doc, gcx.Options{Engine: e})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if out != `<n>3.5</n>` {
			t.Fatalf("%s: out = %q", e, out)
		}
	}
}

// TestFirstWitnessAblation: disabling [1] pruning buffers more but
// never changes results.
func TestFirstWitnessAblation(t *testing.T) {
	doc := `<bib><book><price>1</price><price>2</price><price>3</price></book></bib>`
	const query = `<r>{ for $x in /bib/* return if (exists $x/price) then $x/title else () }</r>`
	pruned := gcx.MustCompile(query)
	unpruned, err := gcx.CompileAnalysis(query, analysis.Options{DisableFirstWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	out1, res1, err := pruned.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out2, res2, err := unpruned.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatalf("ablation changed output: %q vs %q", out1, out2)
	}
	if res2.PeakBufferedNodes <= res1.PeakBufferedNodes {
		t.Fatalf("unpruned should buffer more: %d vs %d",
			res2.PeakBufferedNodes, res1.PeakBufferedNodes)
	}
	// pruned: only the first price is buffered per book
	roles := pruned.Roles()
	found := false
	for _, r := range roles {
		if strings.Contains(r.Path, "[1]") {
			found = true
		}
	}
	if !found {
		t.Fatal("pruned plan lost its [1] role")
	}
	for _, r := range unpruned.Roles() {
		if strings.Contains(r.Path, "[1]") {
			t.Fatal("unpruned plan still has a [1] role")
		}
	}
}

// TestCoarseGranularityAblation: subtree-granular roles change memory,
// never results.
func TestCoarseGranularityAblation(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 128 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, qid := range []string{"Q1", "Q8", "Q20"} {
		fine := gcx.MustCompile(xmark.Queries[qid].Text)
		coarse, err := gcx.CompileAnalysis(xmark.Queries[qid].Text, analysis.Options{CoarseGranularity: true})
		if err != nil {
			t.Fatal(err)
		}
		out1, res1, err := fine.ExecuteString(doc, gcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out2, res2, err := coarse.ExecuteString(doc, gcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if out1 != out2 {
			t.Fatalf("%s: granularity changed output", qid)
		}
		if res2.PeakBufferedBytes < res1.PeakBufferedBytes {
			t.Fatalf("%s: coarse should not buffer less (%d vs %d bytes)",
				qid, res2.PeakBufferedBytes, res1.PeakBufferedBytes)
		}
		if res2.FinalBufferedNodes != 0 {
			t.Fatalf("%s: coarse mode left %d nodes", qid, res2.FinalBufferedNodes)
		}
	}
}
