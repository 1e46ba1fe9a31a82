package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gcx/internal/gcxd"
	"gcx/internal/xmark"
)

// TestRunSmoke drives the harness end to end against its in-process
// server with a tiny window and checks the JSON output shape.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke test")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_gcxd.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-queries", "Q1", "-ndjson-queries", "J1", "-shards", "1,2",
		"-size", "65536", "-warmup", "50ms", "-duration", "300ms", "-c", "2",
		"-json", jsonPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out benchFile
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 4 { // (Q1 + J1) × shards {1,2}
		t.Fatalf("entries = %d, want 4: %s", len(out.Entries), raw)
	}
	for _, e := range out.Entries {
		if e.Requests == 0 {
			t.Errorf("cell %s/shards=%d made no requests", e.Query, e.Shards)
		}
		if e.ErrorRate != 0 {
			t.Errorf("cell %s/shards=%d error rate %.2f", e.Query, e.Shards, e.ErrorRate)
		}
		if e.InputPath != "bytes" {
			t.Errorf("cell %s/shards=%d: %d B body took input path %q, want the zero-copy \"bytes\" path",
				e.Query, e.Shards, e.SizeBytes, e.InputPath)
		}
		if e.P50Ms <= 0 || e.P99Ms < e.P50Ms {
			t.Errorf("cell %s/shards=%d implausible percentiles p50=%f p99=%f",
				e.Query, e.Shards, e.P50Ms, e.P99Ms)
		}
	}
}

// TestRunOpenLoop: the -rate path also completes and labels its cells.
func TestRunOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke test")
	}
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-queries", "Q1", "-ndjson-queries", "", "-shards", "1",
		"-size", "32768", "-warmup", "20ms", "-duration", "200ms", "-rate", "50",
		"-json", jsonPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out benchFile
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 1 || out.Entries[0].RateRPS != 50 || out.Entries[0].Concurrency != 0 {
		t.Fatalf("open-loop cell mislabeled: %+v", out.Entries)
	}
}

// TestRunUsageErrors: malformed flags are usage errors, not crashes.
func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-shards", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("shards=0: exit %d, want 2", code)
	}
	if code := run([]string{"-queries", "Q999", "-duration", "1ms", "-warmup", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown query: exit %d, want 2", code)
	}
}

// TestDefaultBodiesFitTheSmallBodyLimit: the default -size must produce
// bodies gcxd buffers and runs zero-copy; the generators overshoot their
// target, so the default cannot simply be the limit.
func TestDefaultBodiesFitTheSmallBodyLimit(t *testing.T) {
	cfg := xmark.Config{TargetBytes: defaultSize, Seed: 1}
	doc, _, err := xmark.GenerateString(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nd, _, err := xmark.GenerateNDJSONString(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) > gcxd.DefaultBytesBodyLimit || len(nd) > gcxd.DefaultBytesBodyLimit {
		t.Fatalf("default bodies are %d B (XML) and %d B (NDJSON); the small-body limit is %d",
			len(doc), len(nd), gcxd.DefaultBytesBodyLimit)
	}
}
