package gcx_test

import (
	"strings"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

// TestTracePhases: a traced run reports compile plus the execution
// phases, untraced runs report nothing, and the post-compile phases of
// a sequential run sum to the wall time within 10% (the eval phase is
// computed as the remainder, so the slack only covers clock coarseness
// on very fast runs — the acceptance run over a 4 MiB document is
// gcxperf's traced pass, `make perf-baseline`).
func TestTracePhases(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)

	_, res, err := q.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced run has Trace %+v", res.Trace)
	}

	_, res, err = q.ExecuteString(doc, gcx.Options{EnableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 || res.Trace[0].Phase != "compile" {
		t.Fatalf("trace = %+v, want compile first", res.Trace)
	}
	var run int64
	seen := map[string]bool{}
	for _, p := range res.Trace {
		if p.Nanos < 0 {
			t.Errorf("negative phase %+v", p)
		}
		seen[p.Phase] = true
		if p.Phase != "compile" {
			run += p.Nanos
		}
	}
	if !seen["stream"] {
		t.Errorf("no stream phase in %+v", res.Trace)
	}
	wall := int64(res.Duration)
	if diff := wall - run; diff < 0 || diff > wall/10 {
		t.Errorf("phases sum %d vs wall %d (diff %d > 10%%)", run, wall, diff)
	}
}

// TestTraceJoinAndShards: a join query reports build/probe phases, and
// a sharded run reports per-worker sums plus the merge phase.
func TestTraceJoinAndShards(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 64 << 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.Queries["Q8"].Text)
	_, res, err := q.ExecuteString(doc, gcx.Options{EnableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, p := range res.Trace {
		phases = append(phases, p.Phase)
	}
	got := strings.Join(phases, ",")
	if !strings.Contains(got, "join_build") || !strings.Contains(got, "join_probe") {
		t.Errorf("join trace %q lacks join phases", got)
	}

	q = gcx.MustCompile(xmark.Queries["Q1"].Text)
	_, res, err = q.ExecuteString(doc, gcx.Options{EnableTrace: true, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsUsed != 3 {
		t.Fatalf("ShardsUsed = %d", res.ShardsUsed)
	}
	phases = phases[:0]
	for _, p := range res.Trace {
		phases = append(phases, p.Phase)
	}
	got = strings.Join(phases, ",")
	if !strings.Contains(got, "stream") || !strings.Contains(got, "merge") {
		t.Errorf("sharded trace %q lacks stream/merge phases", got)
	}
}

// TestExplainTraceSection: attaching a run's trace to the report adds
// the Trace section to its text rendering.
func TestExplainTraceSection(t *testing.T) {
	q := gcx.MustCompile(xmark.Queries["Q1"].Text)
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 32 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := q.ExecuteString(doc, gcx.Options{EnableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := q.Report()
	if strings.Contains(rep.Text(), "Trace:") {
		t.Fatal("static report should have no Trace section")
	}
	rep.TracePhases = res.Trace
	txt := rep.Text()
	if !strings.Contains(txt, "Trace:") || !strings.Contains(txt, "compile") || !strings.Contains(txt, "total") {
		t.Errorf("trace section missing from:\n%s", txt)
	}
}
