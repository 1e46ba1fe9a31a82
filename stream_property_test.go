package gcx_test

// Differential property test for the static buffer bound (DESIGN.md §9):
// for every bounded-classified query in the XMark and NDJSON catalogs,
// the runtime buffer high watermark must stay under the bound the
// analyzer derived at compile time — peak ≤ ConstNodes +
// RecordFactor·nodes(recordPath) — across input sizes, generator seeds,
// skip settings, and sharded execution. The record term is measured on
// the ground truth: the input fully materialized by the DOM baseline.

import (
	"context"
	"io"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/analysis"
	"gcx/internal/core"
	"gcx/internal/dom"
	"gcx/internal/xmark"
	"gcx/internal/xpath"
)

// subtreeNodes counts the element and text nodes of n's subtree,
// including n itself — the node metric of Result.PeakBufferedNodes.
func subtreeNodes(n *dom.Node) int64 {
	var c int64
	if n.Kind == dom.Element || n.Kind == dom.Text {
		c = 1
	}
	for _, ch := range n.Children {
		c += subtreeNodes(ch)
	}
	return c
}

// maxRecordNodes measures nodes(recPath) for one input: the node count
// of the largest subtree matching the bound's record path.
func maxRecordNodes(t *testing.T, input string, format gcx.Format, recPath xpath.Path) int64 {
	t.Helper()
	src, err := core.NewSourceBytes(format, []byte(input))
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	doc, err := dom.ParseSource(context.Background(), src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var max int64
	for _, n := range dom.Select(doc.Root, recPath) {
		if c := subtreeNodes(n); c > max {
			max = c
		}
	}
	if max == 0 {
		t.Fatalf("record path %s matches nothing in the input", recPath.String())
	}
	return max
}

func TestStaticBoundProperty(t *testing.T) {
	type catalog struct {
		queries map[string]xmark.Query
		format  gcx.Format
		gen     func(xmark.Config) (string, *xmark.Stats, error)
	}
	catalogs := []catalog{
		{xmark.Queries, gcx.FormatXML, xmark.GenerateString},
		{xmark.NDJSONQueries, gcx.FormatNDJSON, xmark.GenerateNDJSONString},
	}
	sizes := []int64{64 << 10, 192 << 10}
	seeds := []int64{1, 7}

	for _, cat := range catalogs {
		for id, q := range cat.queries {
			plan, err := core.CompileWithOptions(q.Text, analysis.Options{})
			if err != nil {
				t.Fatalf("%s: compile: %v", id, err)
			}
			st := plan.Stream

			// The public report must agree with the internal verdict —
			// gcxd admission control trusts the string form.
			query := gcx.MustCompile(q.Text)
			if rep := query.Report(); rep.Streamability != st.Class.String() {
				t.Errorf("%s: report says %q, analyzer says %q", id, rep.Streamability, st.Class)
			}
			if st.Class == analysis.Unbounded {
				continue
			}

			for _, size := range sizes {
				for _, seed := range seeds {
					input, _, err := cat.gen(xmark.Config{TargetBytes: size, Seed: seed})
					if err != nil {
						t.Fatalf("generate: %v", err)
					}
					var rec int64
					if st.Bound.RecordFactor > 0 {
						rec = maxRecordNodes(t, input, cat.format, st.Bound.RecordPath)
					}
					bound := st.Bound.Eval(rec)

					for _, variant := range []struct {
						name  string
						query *gcx.Query
						opts  gcx.Options
					}{
						{"plain", query, gcx.Options{Format: cat.format}},
						{"noskip", gcx.WithoutSkip(query), gcx.Options{Format: cat.format}},
						{"sharded", query, gcx.Options{Format: cat.format, Shards: 4}},
					} {
						res, err := variant.query.Execute(strings.NewReader(input), io.Discard, variant.opts)
						if err != nil {
							t.Fatalf("%s/%s size=%d seed=%d: execute: %v", id, variant.name, size, seed, err)
						}
						// Sharded peaks are summed across workers, each of
						// which owns a full buffer — the budget is per
						// worker (Options.MaxBufferedNodes doc).
						limit := bound
						if res.ShardsUsed > 1 {
							limit = bound * int64(res.ShardsUsed)
						}
						if res.PeakBufferedNodes > limit {
							t.Errorf("%s/%s size=%d seed=%d: peak %d exceeds static bound %d (%s, class %s, record %d)",
								id, variant.name, size, seed, res.PeakBufferedNodes, limit, st.Bound, st.Class, rec)
						}
					}
				}
			}
		}
	}
}

// TestStaticBoundScaling makes the linearity claim concrete for the two
// bounded classes: growing the input 8× must not grow the peak of a
// bounded query beyond the bound computed for the larger input, and for
// a constant-class query the peak must not scale with the input at all
// once the record size plateaus.
func TestStaticBoundScaling(t *testing.T) {
	small, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 32 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	peak := func(input string) int64 {
		res, err := q.Execute(strings.NewReader(input), io.Discard, gcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakBufferedNodes
	}
	ps, pl := peak(small), peak(large)
	// Q1 is bounded-constant: the watermark tracks record size, not
	// input size. Allow 4× slack for record-size variance between the
	// generated documents; an unbounded engine would show ~8×.
	if pl > 4*ps {
		t.Errorf("Q1 peak scaled with input size: %d -> %d over an 8x input growth", ps, pl)
	}
}
