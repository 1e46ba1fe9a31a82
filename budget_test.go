package gcx_test

// Runtime node-budget enforcement (Options.MaxBufferedNodes): every
// engine and execution mode must trip gracefully with ErrBufferBudget
// instead of buffering past the budget, and strict compilation must
// reject statically-unbounded queries up front.

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

// TestJoinBudgetPartialStats: the join table's payload nodes count
// against the budget; a breach in the build section returns
// ErrBufferBudget together with the partial Result, including the join
// counters accumulated so far: the tuples taken before the breach.
func TestJoinBudgetPartialStats(t *testing.T) {
	q := gcx.MustCompile(`<out>{ for $p in /root/ps/p return
		for $b in /root/bs/b return if ($b/k = $p/k) then $b/v else () }</out>`)
	var doc strings.Builder
	doc.WriteString("<root><ps><p><k>a</k></p><p><k>b</k></p><p><k>c</k></p></ps><bs>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&doc, "<b><k>a</k><v>v%d</v></b>", i)
	}
	doc.WriteString("</bs></root>")
	res, err := q.Execute(strings.NewReader(doc.String()), io.Discard,
		gcx.Options{MaxBufferedNodes: 20})
	if !errors.Is(err, gcx.ErrBufferBudget) {
		t.Fatalf("want ErrBufferBudget, got %v", err)
	}
	if res == nil {
		t.Fatal("budget breach returned no partial Result")
	}
	if res.JoinProbeTuples != 3 {
		t.Errorf("partial JoinProbeTuples = %d, want 3 (probe section precedes the breach)", res.JoinProbeTuples)
	}
	if res.JoinBuildTuples <= 0 || res.JoinBuildTuples >= 50 {
		t.Errorf("partial JoinBuildTuples = %d, want the tuples taken before the breach", res.JoinBuildTuples)
	}
	if res.PeakBufferedNodes == 0 || res.PeakBufferedNodes > 21 {
		t.Errorf("peak %d not within one node of the budget", res.PeakBufferedNodes)
	}
}

func budgetInput(t *testing.T) string {
	t.Helper()
	input, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 64 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return input
}

func TestBudgetTripStreaming(t *testing.T) {
	input := budgetInput(t)
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)

	// Q1 holds three nodes at its peak — site, people and one person,
	// since its names stream through (DESIGN.md §3) and a finished
	// person is purged before the next is buffered — so a budget of two
	// trips.
	res, err := q.Execute(strings.NewReader(input), io.Discard, gcx.Options{MaxBufferedNodes: 2})
	if !errors.Is(err, gcx.ErrBufferBudget) {
		t.Fatalf("want ErrBufferBudget, got %v", err)
	}
	if res == nil {
		t.Fatal("budget trip must still return the partial-run statistics")
	}
	if res.PeakBufferedNodes == 0 {
		t.Errorf("partial result carries no watermark: %+v", res)
	}

	// A recorded, traced run that trips keeps its plot and its trace up
	// to the breach.
	res, err = q.Execute(strings.NewReader(input), io.Discard,
		gcx.Options{MaxBufferedNodes: 2, RecordEvery: 1, EnableTrace: true})
	if !errors.Is(err, gcx.ErrBufferBudget) || res == nil {
		t.Fatalf("recorded run: want ErrBufferBudget with a partial Result, got %v, %v", res, err)
	}
	if len(res.Series) == 0 || len(res.Trace) == 0 || res.Trace[0].Phase != "compile" {
		t.Errorf("partial result lost its series (%d points) or trace (%+v)", len(res.Series), res.Trace)
	}

	// A budget above the static bound never trips.
	res, err = q.Execute(strings.NewReader(input), io.Discard, gcx.Options{MaxBufferedNodes: 1 << 20})
	if err != nil {
		t.Fatalf("generous budget tripped: %v", err)
	}
	if res.PeakBufferedNodes > 1<<20 {
		t.Errorf("peak %d above budget", res.PeakBufferedNodes)
	}
}

func TestBudgetTripProjectionOnly(t *testing.T) {
	// Projection-only never purges, so even Q1 overruns a small budget.
	input := budgetInput(t)
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	_, err := q.Execute(strings.NewReader(input), io.Discard,
		gcx.Options{Engine: gcx.EngineProjectionOnly, MaxBufferedNodes: 32})
	if !errors.Is(err, gcx.ErrBufferBudget) {
		t.Fatalf("want ErrBufferBudget, got %v", err)
	}
}

func TestBudgetTripDOM(t *testing.T) {
	input := budgetInput(t)
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	_, err := q.Execute(strings.NewReader(input), io.Discard,
		gcx.Options{Engine: gcx.EngineDOM, MaxBufferedNodes: 32})
	if !errors.Is(err, gcx.ErrBufferBudget) {
		t.Fatalf("want ErrBufferBudget, got %v", err)
	}
}

func TestBudgetTripSharded(t *testing.T) {
	input := budgetInput(t)
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	if !q.Shardable() {
		t.Fatal("Q1 must be shardable")
	}
	// Each worker's Q1 holds three nodes, as the sequential run does.
	_, err := q.Execute(strings.NewReader(input), io.Discard,
		gcx.Options{Shards: 4, MaxBufferedNodes: 2})
	if !errors.Is(err, gcx.ErrBufferBudget) {
		t.Fatalf("sharded run: want ErrBufferBudget, got %v", err)
	}

	// Per-worker budget: a budget that is generous per worker passes.
	res, err := q.Execute(strings.NewReader(input), io.Discard,
		gcx.Options{Shards: 4, MaxBufferedNodes: 1 << 20})
	if err != nil {
		t.Fatalf("generous sharded budget tripped: %v", err)
	}
	if res.ShardsUsed < 1 {
		t.Errorf("ShardsUsed = %d", res.ShardsUsed)
	}
}

func TestBudgetTripNDJSON(t *testing.T) {
	input, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 32 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.NDJSONQueries["J1"].Text)
	_, err = q.Execute(strings.NewReader(input), io.Discard,
		gcx.Options{Format: gcx.FormatNDJSON, MaxBufferedNodes: 2})
	if !errors.Is(err, gcx.ErrBufferBudget) {
		t.Fatalf("ndjson: want ErrBufferBudget, got %v", err)
	}
}

func TestStrictCompileRejectsUnbounded(t *testing.T) {
	// Q8 is the join: statically unbounded, rejected up front.
	_, err := gcx.CompileWithOptions(xmark.Queries["Q8"].Text,
		gcx.CompileOptions{StrictStreaming: true})
	if err == nil {
		t.Fatal("strict compile accepted the Q8 join")
	}
	if !strings.Contains(err.Error(), "strict streaming") || !strings.Contains(err.Error(), "join") {
		t.Errorf("rejection does not carry the analyzer's reason: %v", err)
	}

	// Bounded queries compile unchanged under strict mode.
	for _, id := range []string{"Q1", "Q17"} {
		if _, err := gcx.CompileWithOptions(xmark.Queries[id].Text,
			gcx.CompileOptions{StrictStreaming: true}); err != nil {
			t.Errorf("%s: strict compile rejected a bounded query: %v", id, err)
		}
	}
}

// TestShardedPeakIsOneEngines: a sharded run reports the largest peak of
// any one engine, the unit the budget is enforced in, so a run that
// succeeds under a budget never reports a peak above it. Summing the
// chunks' peaks reported 67 × the sequential peak on 16 MiB.
func TestShardedPeakIsOneEngines(t *testing.T) {
	input, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 1 << 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	_, seq, err := q.ExecuteString(input, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := q.ExecuteString(input, gcx.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks < 3 {
		t.Fatalf("%d chunks, want at least 3", res.Chunks)
	}
	if res.PeakBufferedNodes != seq.PeakBufferedNodes {
		t.Errorf("sharded peak %d over %d chunks, sequential peak %d", res.PeakBufferedNodes, res.Chunks, seq.PeakBufferedNodes)
	}
	if _, _, err := q.ExecuteString(input, gcx.Options{Shards: 2, MaxBufferedNodes: seq.PeakBufferedNodes}); err != nil {
		t.Errorf("budget %d, the sequential peak: %v", seq.PeakBufferedNodes, err)
	}
}
