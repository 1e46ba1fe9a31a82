package gcx_test

import (
	"bytes"
	"io"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

// Tests of the buffer hot path (DESIGN.md §13) through the public API.
//
// The allocation ceilings are hard limits, not benchmarks: allocation
// counts repeat exactly from run to run, so a change that reintroduces
// a per-node, per-sign-off or per-binding allocation fails here before
// any timing would notice it.

// queryE1 is gcxperf's xml-emit query: every item subtree is buffered,
// emitted and signed off.
const queryE1 = `<result>{ for $r in /site/regions return for $i in $r//item return $i }</result>`

// q8AllocsParent is Q8's allocation count over the 1 MiB document below
// at the commit before the buffer hot path stopped allocating per node.
const q8AllocsParent = 19_681

// q20AllocsParent is Q20's allocation count over the same document at
// the commit before numeric literals were rendered once at parse time
// instead of at every comparison (four per person).
const q20AllocsParent = 4_744

// runAllocs returns the allocations of one execution of query over doc
// and the run's statistics, on the zero-copy backing or — reader set —
// on the reader backing, behind a reader that shows nothing but Read.
func runAllocs(t *testing.T, query string, doc []byte, opts gcx.Options, reader bool) (float64, *gcx.Result) {
	t.Helper()
	q, err := gcx.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	var res *gcx.Result
	allocs := testing.AllocsPerRun(3, func() {
		if reader {
			res, err = q.Execute(readerOnly{bytes.NewReader(doc)}, io.Discard, opts)
		} else {
			res, err = q.ExecuteBytes(doc, io.Discard, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	return allocs, res
}

// TestAllocCeilingReader holds the streamed path to the zero-copy
// path's allocation behaviour (DESIGN.md §12 "Token lifetime on the
// reader backing"): text arrives as views and only what the projection
// keeps is copied, a block at a time, so a run allocates no more than a
// fixed handful beyond the byte path's count — not once per text token
// or attribute value, which is 20 times the per-token ceiling.
func TestAllocCeilingReader(t *testing.T) {
	xml, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ndjson, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, query, doc string
		opts             gcx.Options
	}{
		{"Q6", xmark.Queries["Q6"].Text, xml, gcx.Options{}},
		{"J1", xmark.NDJSONQueries["J1"].Text, ndjson, gcx.Options{Format: gcx.FormatNDJSON}},
	} {
		onBytes, _ := runAllocs(t, c.query, []byte(c.doc), c.opts, false)
		onReader, res := runAllocs(t, c.query, []byte(c.doc), c.opts, true)
		perToken := onReader / float64(res.TokensProcessed)
		t.Logf("%s: %.0f allocations on the reader backing over %d tokens = %.4f per token; %.0f on bytes",
			c.name, onReader, res.TokensProcessed, perToken, onBytes)
		if perToken > 0.05 {
			t.Errorf("%s allocates %.4f times per delivered token on the reader backing, ceiling 0.05", c.name, perToken)
		}
		if onReader > onBytes+64 {
			t.Errorf("%s allocates %.0f times on the reader backing, %.0f on bytes: more than 64 apart", c.name, onReader, onBytes)
		}
	}
}

func TestAllocCeilingJ1(t *testing.T) {
	doc, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	records := bytes.Count([]byte(doc), []byte("\n"))
	allocs, _ := runAllocs(t, xmark.NDJSONQueries["J1"].Text, []byte(doc), gcx.Options{Format: gcx.FormatNDJSON}, false)
	perRecord := allocs / float64(records)
	t.Logf("J1: %.0f allocations over %d records = %.2f per record", allocs, records, perRecord)
	// A run allocates a fixed 50-odd times whatever the record count; one
	// allocation a member, or a record, is 20 times the ceiling.
	if perRecord > 0.05 {
		t.Errorf("J1 allocates %.2f times per record, ceiling 0.05", perRecord)
	}
}

func TestAllocCeilingE1(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs, res := runAllocs(t, queryE1, []byte(doc), gcx.Options{}, false)
	perNode := allocs / float64(res.TotalAppended)
	t.Logf("E1: %.0f allocations over %d appended nodes = %.4f per node", allocs, res.TotalAppended, perNode)
	if perNode > 0.05 {
		t.Errorf("E1 allocates %.4f times per appended node, ceiling 0.05", perNode)
	}
}

func TestAllocCeilingQ8(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs, _ := runAllocs(t, xmark.Queries["Q8"].Text, []byte(doc), gcx.Options{}, false)
	t.Logf("Q8: %.0f allocations (parent commit: %d)", allocs, q8AllocsParent)
	if allocs > q8AllocsParent {
		t.Errorf("Q8 allocates %.0f times, parent commit %d", allocs, q8AllocsParent)
	}
}

func TestAllocCeilingQ20(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	query := xmark.Queries["Q20"].Text
	allocs, _ := runAllocs(t, query, []byte(doc), gcx.Options{}, false)
	t.Logf("Q20: %.0f allocations (parent commit: %d)", allocs, q20AllocsParent)
	if allocs >= q20AllocsParent {
		t.Errorf("Q20 allocates %.0f times, parent commit %d", allocs, q20AllocsParent)
	}
	// The DOM engine still formats the literal at every comparison, so
	// equal output says the pre-rendered form is the same value.
	q, err := gcx.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := q.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := q.ExecuteString(doc, gcx.Options{Engine: gcx.EngineDOM})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("Q20 output differs from the DOM engine's")
	}
}

// TestNestedSourcePaths drives the one evaluator branch no catalog query
// reaches: a multi-step path whose intermediate matches nest, so the
// buffer has to add up derivation counts and restore document order
// (DESIGN.md §13). The DOM engine is the oracle, and the role balance
// must close — a miscounted derivation would leave instances behind or
// panic in RemoveRole.
func TestNestedSourcePaths(t *testing.T) {
	const doc = `<r><a><b>1</b><a><b>2</b><a><b>3</b></a><b>4</b></a><b>5</b></a><a><b>6</b></a></r>`
	for _, query := range []string{
		`<o>{ for $x in /r return $x//a//b }</o>`,
		`<o>{ for $x in /r return $x//a/b }</o>`,
		`<o>{ for $x in /r return if ($x//a//b = "4") then $x//a/b else () }</o>`,
		`<o>{ for $x in /r return count($x//a//b) }</o>`,
	} {
		q, err := gcx.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := q.ExecuteString(doc, gcx.Options{Engine: gcx.EngineDOM, EnableAggregation: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []gcx.SignOffMode{gcx.SignOffDeferred, gcx.SignOffEager} {
			got, res, err := q.ExecuteString(doc, gcx.Options{EnableAggregation: true, SignOffMode: mode})
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			if got != want {
				t.Errorf("%s\n got %s\nwant %s", query, got, want)
			}
			if res.FinalBufferedNodes != 0 {
				t.Errorf("%s: %d nodes left buffered", query, res.FinalBufferedNodes)
			}
		}
	}
}
