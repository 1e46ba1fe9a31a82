package shard

import (
	"context"
	"strings"
	"testing"

	"gcx/internal/analysis"
	"gcx/internal/core"
	"gcx/internal/engine"
	"gcx/internal/stats"
	"gcx/internal/xmark"
)

func compileShardable(t *testing.T, src string) (*analysis.Plan, *analysis.ShardInfo) {
	t.Helper()
	plan, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shard == nil {
		t.Fatalf("not shardable: %s", plan.ShardReason)
	}
	return plan, plan.Shard
}

func sequential(t *testing.T, plan *analysis.Plan, doc string, cfg engine.Config) (string, *stats.Run) {
	t.Helper()
	var out strings.Builder
	res, err := core.Run(context.Background(), plan, core.Input{Reader: strings.NewReader(doc)}, &out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), res
}

// sharded runs info over doc as a stream with the given chunk target.
func sharded(ctx context.Context, info *analysis.ShardInfo, doc string, out *strings.Builder, workers, chunk int, cfg engine.Config) (*stats.Run, error) {
	return run(ctx, info, core.Input{Reader: strings.NewReader(doc)}, out, workers, chunk, cfg)
}

// TestByteIdentity is the acceptance property: sharded output equals
// sequential output byte for byte, across queries, worker counts and
// chunk sizes (tiny chunks stress the reorder path with one chunk per
// record).
func TestByteIdentity(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		"Q1":       xmark.Queries["Q1"].Text,
		"Q6":       xmark.Queries["Q6"].Text,
		"Q13":      xmark.Queries["Q13"].Text,
		"Q17":      xmark.Queries["Q17"].Text,
		"Q20":      xmark.Queries["Q20"].Text,
		"wildcard": `<r>{ for $i in /site/regions/*/item return <n>{ $i/name }</n> }</r>`,
	}
	for name, src := range queries {
		plan, info := compileShardable(t, src)
		want, _ := sequential(t, plan, doc, engine.Config{})
		for _, workers := range []int{2, 4, 8} {
			for _, chunk := range []int{0, 4 << 10, 1} {
				var out strings.Builder
				res, err := sharded(context.Background(), info, doc, &out, workers, chunk, engine.Config{})
				if err != nil {
					t.Fatalf("%s workers=%d chunk=%d: %v", name, workers, chunk, err)
				}
				if out.String() != want {
					t.Fatalf("%s workers=%d chunk=%d: output differs from sequential (%d vs %d bytes)",
						name, workers, chunk, out.Len(), len(want))
				}
				if res.OutputBytes != int64(out.Len()) {
					t.Fatalf("%s: OutputBytes = %d, wrote %d", name, res.OutputBytes, out.Len())
				}
				if res.Chunks == 0 {
					t.Fatalf("%s: no chunks", name)
				}
			}
		}
	}
}

// TestWrapperSerialization: the constant wrapper — tokens on the plan —
// is serialized here with the engine's escaping, once around the merged
// worker outputs, and counted into OutputBytes.
func TestWrapperSerialization(t *testing.T) {
	plan, info := compileShardable(t, `<r kind="x&y" n='2'>{ ("a<", for $b in /bib/book return $b/title, "z") }</r>`)
	const doc = `<bib><book><title>A</title></book><book><title>B</title></book></bib>`
	want, _ := sequential(t, plan, doc, engine.Config{})
	if !strings.HasPrefix(want, `<r kind="x&amp;y" n="2">a&lt;`) || !strings.HasSuffix(want, `z</r>`) {
		t.Fatalf("sequential output = %q", want)
	}
	var out strings.Builder
	res, err := sharded(context.Background(), info, doc, &out, 2, 1, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want || res.OutputBytes != int64(out.Len()) {
		t.Fatalf("sharded output %q (%d bytes counted), want %q", out.String(), res.OutputBytes, want)
	}
}

// TestByteIdentityAcrossEngines: sharding composes with the baseline
// buffering disciplines too.
func TestByteIdentityAcrossEngines(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 64 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plan, info := compileShardable(t, xmark.Queries["Q1"].Text)
	for eng, cfg := range map[string]engine.Config{
		"gcx": {}, "projection": {DisableGC: true}, "dom": {Oracle: true},
	} {
		want, _ := sequential(t, plan, doc, cfg)
		var out strings.Builder
		if _, err := sharded(context.Background(), info, doc, &out, 4, 4<<10, cfg); err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if out.String() != want {
			t.Fatalf("engine %s: sharded output differs", eng)
		}
	}
}

func TestEmptyAndRecordlessInputs(t *testing.T) {
	_, info := compileShardable(t, `<out>{ for $p in /site/people/person return $p/name }</out>`)
	for _, doc := range []string{``, `<site><regions/></site>`, `<other/>`} {
		var out strings.Builder
		res, err := Run(context.Background(), info, core.Input{Reader: strings.NewReader(doc)}, &out, 4, engine.Config{})
		if err != nil {
			t.Fatalf("doc %q: %v", doc, err)
		}
		if out.String() != "<out></out>" {
			t.Fatalf("doc %q: output = %q", doc, out.String())
		}
		if res.Chunks != 0 {
			t.Fatalf("doc %q: chunks = %d", doc, res.Chunks)
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 128 << 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plan, info := compileShardable(t, xmark.Queries["Q1"].Text)
	// Reference run on a copy of the plan without its skip automaton, so
	// its token count covers the full document (the skipping engine
	// fast-forwards irrelevant sections and counts fewer tokens than the
	// splitter leaves in the chunks).
	noSkip := *plan
	noSkip.Automaton = nil
	_, sres := sequential(t, &noSkip, doc, engine.Config{})
	var out strings.Builder
	res, err := sharded(context.Background(), info, doc, &out, 4, 8<<10, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TokensProcessed == 0 || res.TotalAppended == 0 {
		t.Fatalf("counters not aggregated: %+v", res)
	}
	// Workers see only record subtrees (plus synthesized wrappers), so
	// they process fewer tokens than the sequential run over the full
	// document — that work skipping is the point of sharding.
	if res.TokensProcessed >= sres.TokensProcessed {
		t.Fatalf("sharded tokens %d ≥ sequential %d", res.TokensProcessed, sres.TokensProcessed)
	}
	// Summed per-worker peaks bound the sequential peak from above.
	if res.PeakBufferedNodes < sres.PeakBufferedNodes {
		t.Fatalf("summed peak %d below sequential peak %d", res.PeakBufferedNodes, sres.PeakBufferedNodes)
	}
	if res.Duration <= 0 {
		t.Fatal("duration not measured")
	}
	if res.ShardsUsed != 4 || res.Chunks < 2 {
		t.Fatalf("shards used %d, chunks %d", res.ShardsUsed, res.Chunks)
	}
}

func TestMalformedInputFails(t *testing.T) {
	_, info := compileShardable(t, `<out>{ for $p in /site/people/person return $p/name }</out>`)
	doc := `<site><people><person><name>A</name></wrong></people></site>`
	var out strings.Builder
	if _, err := sharded(context.Background(), info, doc, &out, 2, 0, engine.Config{}); err == nil {
		t.Fatal("malformed input did not fail")
	}
}

// TestWorkerErrorPropagates: a record whose evaluation fails inside a
// worker (malformed nested content the splitter does not inspect) must
// surface as the execution error.
func TestWorkerErrorPropagates(t *testing.T) {
	_, info := compileShardable(t, `<out>{ for $p in /site/people/person return $p/name }</out>`)
	// The attribute is malformed (no quotes): the splitter passes it
	// through raw, the worker's tokenizer rejects it.
	doc := `<site><people><person><name malformed=1>A</name></person></people></site>`
	var out strings.Builder
	if _, err := sharded(context.Background(), info, doc, &out, 2, 0, engine.Config{}); err == nil {
		t.Fatal("worker tokenizer error did not propagate")
	}
}

func TestCancellation(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, info := compileShardable(t, xmark.Queries["Q1"].Text)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	if _, err := sharded(ctx, info, doc, &out, 4, 1<<10, engine.Config{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
