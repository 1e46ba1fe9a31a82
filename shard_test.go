package gcx_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

// TestShardedByteIdentity is the public-API acceptance property:
// sharded output is byte-identical to sequential output for the
// partitionable XMark queries at shards ∈ {2, 4, 8}. The joins Q8 and
// Q9 are not partitionable and fall back to one sequential run with the
// same output.
func TestShardedByteIdentity(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, qid := range []string{"Q1", "Q6", "Q8", "Q9", "Q13", "Q17", "Q20"} {
		q := gcx.MustCompile(xmark.Queries[qid].Text)
		join := qid == "Q8" || qid == "Q9"
		if q.Shardable() == join {
			t.Fatalf("%s: Shardable() = %v", qid, q.Shardable())
		}
		want, _, err := q.ExecuteString(doc, gcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4, 8} {
			got, res, err := q.ExecuteString(doc, gcx.Options{Shards: n})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", qid, n, err)
			}
			if got != want {
				t.Fatalf("%s shards=%d: output differs from sequential", qid, n)
			}
			if join {
				if res.ShardsUsed != 1 || res.Chunks != 0 {
					t.Fatalf("%s shards=%d: ShardsUsed = %d, Chunks = %d; want the sequential fallback", qid, n, res.ShardsUsed, res.Chunks)
				}
				continue
			}
			if res.ShardsUsed != n {
				t.Fatalf("%s shards=%d: ShardsUsed = %d", qid, n, res.ShardsUsed)
			}
			if res.Chunks == 0 {
				t.Fatalf("%s shards=%d: no chunks reported", qid, n)
			}
		}
	}
}

// TestShardedFallbacks: non-partitionable queries and recorded runs
// transparently use the sequential engine.
func TestShardedFallbacks(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 64 << 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}

	// A self-join compares two bindings of the same path: the streaming
	// join operator does not apply (probe and build subtrees overlap),
	// so the whole-input re-scan forces sequential execution.
	selfJoin := gcx.MustCompile(`<result>{ for $p in /site/people/person return
	  for $q in /site/people/person return
	    if ($q/@id = $p/@id) then $q/name else () }</result>`)
	if selfJoin.Shardable() {
		t.Fatal("self-join must not be shardable")
	}
	want, _, err := selfJoin.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := selfJoin.ExecuteString(doc, gcx.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || res.ShardsUsed != 1 || res.Chunks != 0 {
		t.Fatalf("fallback broken: used=%d chunks=%d identical=%v", res.ShardsUsed, res.Chunks, got == want)
	}

	// Negative shard counts are a caller bug, not a silent fallback.
	q1 := gcx.MustCompile(xmark.Queries["Q1"].Text)
	if _, _, err := q1.ExecuteString(doc, gcx.Options{Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

func TestShardableExplain(t *testing.T) {
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	if !strings.Contains(q.Explain(), "Sharding: partitionable on /site/people/person") {
		t.Fatalf("Explain missing sharding verdict:\n%s", q.Explain())
	}
	// A detected join runs sequentially and Explain names it as the
	// reason; a self-join (no join operator) still reports a fallback.
	for _, qid := range []string{"Q8", "Q9"} {
		q := gcx.MustCompile(xmark.Queries[qid].Text)
		const want = "Sharding: sequential only (detected join: no probe output is final before the build side is complete)"
		if !strings.Contains(q.Explain(), want) {
			t.Fatalf("%s: Explain missing the join fallback reason:\n%s", qid, q.Explain())
		}
	}
	selfJoin := gcx.MustCompile(`<result>{ for $p in /site/people/person return
	  for $q in /site/people/person return
	    if ($q/@id = $p/@id) then $q/name else () }</result>`)
	if !strings.Contains(selfJoin.Explain(), "Sharding: sequential only") {
		t.Fatalf("Explain missing fallback reason:\n%s", selfJoin.Explain())
	}
}

// TestShardedAutoFormatJSON: with Format left at FormatAuto, a JSON
// input is sniffed before the shard decision, so Shards > 1 runs it
// sequentially (JSON never shards) instead of through the XML splitter.
func TestShardedAutoFormatJSON(t *testing.T) {
	q := gcx.MustCompile(`for $r in /*/record return $r/a`)
	const doc = "{\"a\":1}\n{\"a\":2}\n"
	want, _, err := q.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := q.ExecuteString(doc, gcx.Options{Shards: 2})
	if err != nil {
		t.Fatalf("bytes, shards=2: %v", err)
	}
	if got != want || res.ShardsUsed != 1 {
		t.Fatalf("bytes, shards=2: output %q (want %q), ShardsUsed = %d", got, want, res.ShardsUsed)
	}
	var out strings.Builder
	if res, err = q.Execute(strings.NewReader("\n "+doc), &out, gcx.Options{Shards: 2}); err != nil {
		t.Fatalf("reader, shards=2: %v", err)
	}
	if out.String() != want || res.ShardsUsed != 1 {
		t.Fatalf("reader, shards=2: output %q (want %q), ShardsUsed = %d", out.String(), want, res.ShardsUsed)
	}
}

// TestShardedConcurrentQueries: one compiled Query serving concurrent
// sharded executions, per the package's concurrency guarantee.
func TestShardedConcurrentQueries(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 128 << 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	want, _, err := q.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			got, _, err := q.ExecuteString(doc, gcx.Options{Shards: 2 + n%3})
			if err != nil {
				errs <- err
				return
			}
			if got != want {
				t.Errorf("goroutine %d: output differs", n)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestExecuteStringContext(t *testing.T) {
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 32 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.ExecuteStringContext(ctx, doc, gcx.Options{}); err != context.Canceled {
		t.Fatalf("sequential: err = %v, want context.Canceled", err)
	}
	if _, _, err := q.ExecuteStringContext(ctx, doc, gcx.Options{Shards: 4}); err != context.Canceled {
		t.Fatalf("sharded: err = %v, want context.Canceled", err)
	}
	// And the non-cancelled path still works.
	if _, _, err := q.ExecuteStringContext(context.Background(), doc, gcx.Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
}
