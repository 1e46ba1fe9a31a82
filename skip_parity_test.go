package gcx_test

import (
	"strings"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

// TestSkipParityXMark is the correctness pin of projection-guided
// subtree skipping (DESIGN.md §7): over the XMark suite, the skipping
// engine's output must be byte-identical to the non-skipping engine's,
// for both streaming disciplines, across generator seeds — and the
// queries whose projection paths exclude large document sections must
// actually skip bytes.
func TestSkipParityXMark(t *testing.T) {
	queries := []string{"Q1", "Q6", "Q8", "Q13", "Q20"}
	// Queries whose role paths leave whole top-level sections dead;
	// the acceptance bar requires nonzero BytesSkipped on these.
	mustSkip := map[string]bool{"Q1": true, "Q6": true, "Q13": true}
	for _, seed := range []int64{1, 7} {
		doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, qid := range queries {
			entry := xmark.Queries[qid]
			q, err := gcx.Compile(entry.Text)
			if err != nil {
				t.Fatalf("%s: %v", qid, err)
			}
			for _, eng := range []struct {
				name string
				opt  gcx.Engine
			}{{"gcx", gcx.EngineGCX}, {"projection", gcx.EngineProjectionOnly}} {
				base := gcx.Options{Engine: eng.opt}

				wantOut, wantRes, err := gcx.WithoutSkip(q).ExecuteString(doc, base)
				if err != nil {
					t.Fatalf("%s/%s noskip: %v", qid, eng.name, err)
				}
				if wantRes.BytesSkipped != 0 || wantRes.SubtreesSkipped != 0 {
					t.Fatalf("%s/%s: skip-disabled run reported skipping: %+v", qid, eng.name, wantRes)
				}

				gotOut, gotRes, err := q.ExecuteString(doc, base)
				if err != nil {
					t.Fatalf("%s/%s skip: %v", qid, eng.name, err)
				}
				if gotOut != wantOut {
					t.Fatalf("%s/%s seed %d: output diverges with skipping on\nskip:   %.200q\nnoskip: %.200q",
						qid, eng.name, seed, gotOut, wantOut)
				}
				if gotRes.OutputBytes != wantRes.OutputBytes {
					t.Fatalf("%s/%s: OutputBytes %d != %d", qid, eng.name, gotRes.OutputBytes, wantRes.OutputBytes)
				}
				if mustSkip[qid] && gotRes.BytesSkipped == 0 {
					t.Fatalf("%s/%s: expected nonzero BytesSkipped", qid, eng.name)
				}
				if gotRes.BytesSkipped > 0 && gotRes.TokensProcessed >= wantRes.TokensProcessed {
					t.Fatalf("%s/%s: skipping did not reduce tokens (%d vs %d)",
						qid, eng.name, gotRes.TokensProcessed, wantRes.TokensProcessed)
				}
			}
		}
	}
}

// TestSkipParitySharded: sharded runs ride the same skipping engine in
// every worker; output must stay byte-identical to the sequential
// non-skipping run, and worker skipping must surface in the aggregated
// counters.
func TestSkipParitySharded(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q, err := gcx.Compile(xmark.Queries["Q1"].Text)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Shardable() {
		t.Fatal("Q1 must be shardable")
	}
	want, _, err := gcx.WithoutSkip(q).ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := q.ExecuteString(doc, gcx.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sharded skipping output diverges\ngot:  %.200q\nwant: %.200q", got, want)
	}
	if res.BytesSkipped == 0 {
		t.Fatal("sharded Q1 should report worker-side BytesSkipped")
	}
}

// TestSkipDisabledWhenRecording: RecordEvery runs keep the paper's
// per-token x-axis, so they must not skip.
func TestSkipDisabledWhenRecording(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 64 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := gcx.Compile(xmark.Queries["Q1"].Text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(strings.NewReader(doc), discardWriter{}, gcx.Options{RecordEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesSkipped != 0 {
		t.Fatalf("recording run skipped %d bytes", res.BytesSkipped)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series recorded")
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
