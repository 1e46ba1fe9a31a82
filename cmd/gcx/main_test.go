package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

const testDoc = `<bib><book><title>A</title><price>9</price></book>` +
	`<article><title>B</title></article></bib>`

func runCmd(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(context.Background(), args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunQueryFromFlagAndStdin(t *testing.T) {
	code, out, stderr := runCmd(t,
		[]string{"-q", `<out>{ for $b in /bib/book return $b/title }</out>`}, testDoc)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if want := "<out><title>A</title></out>\n"; out != want {
		t.Fatalf("stdout = %q, want %q", out, want)
	}
}

func TestRunQueryFile(t *testing.T) {
	dir := t.TempDir()
	qf := filepath.Join(dir, "q.xq")
	if err := os.WriteFile(qf, []byte(`<r>{ for $x in /bib/article return $x/title }</r>`), 0o644); err != nil {
		t.Fatal(err)
	}
	inf := filepath.Join(dir, "in.xml")
	if err := os.WriteFile(inf, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	outf := filepath.Join(dir, "out.xml")
	code, _, stderr := runCmd(t, []string{"-f", qf, "-i", inf, "-o", outf, "-stats"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(outf)
	if err != nil {
		t.Fatal(err)
	}
	if want := `<r><title>B</title></r>`; string(data) != want {
		t.Fatalf("output file = %q, want %q", data, want)
	}
	// Scripts parse the -stats line by label: the existing labels keep
	// their names and order; new ones may only follow them.
	var labels []string
	for _, kv := range strings.Fields(stderr) {
		label, _, _ := strings.Cut(kv, "=")
		labels = append(labels, label)
	}
	const want = "tokens peak_nodes peak_bytes final_nodes appended purged output_bytes bytes_skipped tags_skipped shards chunks join_probe join_build join_matches"
	if got := strings.Join(labels, " "); !strings.HasPrefix(got, want+" ") || !strings.HasSuffix(got, " time") {
		t.Fatalf("-stats labels = %q, want prefix %q and time last", got, want)
	}
}

func TestRunEngineAndModeFlags(t *testing.T) {
	query := `<out>{ for $b in /bib/book return $b/title }</out>`
	var outputs []string
	for _, args := range [][]string{
		{"-q", query, "-engine", "gcx"},
		{"-q", query, "-engine", "projection"},
		{"-q", query, "-engine", "dom"},
		{"-q", query, "-shards", "4"},
	} {
		code, out, stderr := runCmd(t, args, testDoc)
		if code != 0 {
			t.Fatalf("args %v: exit %d, stderr: %s", args, code, stderr)
		}
		outputs = append(outputs, out)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("engines disagree: %q vs %q", outputs[i], outputs[0])
		}
	}
}

func TestRunExplain(t *testing.T) {
	code, out, _ := runCmd(t, []string{"-q", `<out>{ for $b in /bib/book return $b/title }</out>`, "-explain"}, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Roles (projection paths):") || !strings.Contains(out, "Sharding:") {
		t.Fatalf("explain output incomplete:\n%s", out)
	}
}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		stdin string
		code  int
	}{
		{"no query", nil, "", 2},
		{"bad flag", []string{"-nope"}, "", 2},
		{"compile error", []string{"-q", "for $x in"}, "", 1},
		{"unknown engine", []string{"-q", "<r/>", "-engine", "zap"}, "", 2},
		{"unknown format", []string{"-q", "<r/>", "-format", "yaml"}, "", 2},
		{"negative shards", []string{"-q", "<r/>", "-shards", "-1"}, "", 2},
		{"malformed input", []string{"-q", `<r>{ for $b in /bib/book return $b }</r>`}, "<bib><book></bib>", 1},
	}
	for _, c := range cases {
		code, _, stderr := runCmd(t, c.args, c.stdin)
		if code != c.code {
			t.Fatalf("%s: exit %d, want %d (stderr: %s)", c.name, code, c.code, stderr)
		}
	}
}

// TestRunAggregationWithoutFlag: aggregation needs no opt-in, and the
// removed -agg flag is a usage error like any unknown flag.
func TestRunAggregationWithoutFlag(t *testing.T) {
	const count = `<n>{ count(/a/b) }</n>`
	code, out, stderr := runCmd(t, []string{"-q", count}, "<a><b/><b/></a>")
	if code != 0 || out != "<n>2</n>\n" {
		t.Fatalf("exit %d, stdout %q, stderr: %s", code, out, stderr)
	}
	code, _, stderr = runCmd(t, []string{"-agg", "-q", count}, "<a><b/></a>")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -agg") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// TestRunNoJoinRemoved: the nested-loop join ablation is a benchmark
// (BenchmarkAblationJoin), not a flag; -no-join is a usage error like
// any unknown flag.
func TestRunNoJoinRemoved(t *testing.T) {
	code, _, stderr := runCmd(t, []string{"-no-join", "-q", "<r/>"}, "<a/>")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -no-join") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// TestRunModeRemoved: sign-offs have one timing (deferred), so the
// former -mode flag is a usage error like any unknown flag.
func TestRunModeRemoved(t *testing.T) {
	code, _, stderr := runCmd(t, []string{"-mode", "eager", "-q", "<r/>"}, "<a/>")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -mode") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// infiniteDoc drips an endless XML document so timeouts have something
// to interrupt.
type infiniteDoc struct {
	started bool
}

func (d *infiniteDoc) Read(p []byte) (int, error) {
	chunk := "<book><title>t</title></book>"
	if !d.started {
		d.started = true
		chunk = "<bib>" + chunk
	}
	n := copy(p, chunk)
	return n, nil
}

func TestRunTimeout(t *testing.T) {
	var out, errb strings.Builder
	start := time.Now()
	code := run(context.Background(),
		[]string{"-q", `<out>{ for $b in /bib/book return $b/title }</out>`, "-timeout", "50ms"},
		&infiniteDoc{}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not abort promptly (took %s)", elapsed)
	}
	if !strings.Contains(errb.String(), "deadline") {
		t.Fatalf("stderr = %q, want deadline error", errb.String())
	}
}

// TestRunCancelledContext simulates a delivered SIGINT: the run must
// abort with the context error.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb strings.Builder
	code := run(ctx, []string{"-q", `<out>{ for $b in /bib/book return $b/title }</out>`},
		&infiniteDoc{}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "canceled") {
		t.Fatalf("stderr = %q, want cancellation error", errb.String())
	}
}

func TestRunExplainJSON(t *testing.T) {
	code, out, stderr := runCmd(t, []string{"-q", `<out>{ for $b in /bib/book return $b/title }</out>`, "-explain-json"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-explain-json did not print JSON: %v\n%s", err, out)
	}
	if rep["streamability"] != "bounded-constant" {
		t.Errorf("streamability = %v", rep["streamability"])
	}
	if rep["static_bound"] == nil {
		t.Errorf("bounded query report misses static_bound:\n%s", out)
	}
}

func TestRunMaxNodes(t *testing.T) {
	query := `<out>{ for $b in /bib/book return $b/title }</out>`
	code, _, stderr := runCmd(t, []string{"-q", query, "-max-nodes", "1"}, testDoc)
	if code != 1 || !strings.Contains(stderr, "budget") {
		t.Fatalf("tiny budget: exit %d, stderr %q", code, stderr)
	}
	// The breach still reports how far the run got — plot, trace and
	// statistics — before the error line.
	code, _, stderr = runCmd(t, []string{"-q", query, "-max-nodes", "1", "-stats", "-trace", "-plot", "1"}, testDoc)
	stats, errLine := strings.Index(stderr, "tokens="), strings.Index(stderr, "gcx: ")
	if code != 1 || stats < 0 || errLine < stats || !strings.Contains(stderr, "trace: compile=") || !strings.HasPrefix(stderr, "1\t") {
		t.Fatalf("tiny budget with -stats -trace -plot: exit %d, stderr %q", code, stderr)
	}
	code, out, stderr := runCmd(t, []string{"-q", query, "-max-nodes", "100000"}, testDoc)
	if code != 0 {
		t.Fatalf("generous budget: exit %d, stderr %q", code, stderr)
	}
	if want := "<out><title>A</title></out>\n"; out != want {
		t.Fatalf("stdout = %q, want %q", out, want)
	}
}

// TestRunPlotSharded: -plot records the run -stats describes, sharded
// too. The series lines' token column increases strictly, and their
// largest node count is the stats line's peak_nodes.
func TestRunPlotSharded(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 8000; i++ {
		fmt.Fprintf(&doc, "<book><title>t%d</title><price>%d</price></book>", i, i%100)
	}
	doc.WriteString("</bib>")
	query := `<out>{ for $b in /bib/book return $b/title }</out>`
	code, _, stderr := runCmd(t, []string{"-q", query, "-plot", "1", "-stats", "-shards", "2"}, doc.String())
	if code != 0 {
		t.Fatalf("exit %d, stderr: %.300s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	statsLine := lines[len(lines)-1]
	counters := map[string]int64{}
	for _, kv := range strings.Fields(statsLine) {
		label, v, _ := strings.Cut(kv, "=")
		counters[label], _ = strconv.ParseInt(v, 10, 64)
	}
	if counters["shards"] != 2 || counters["chunks"] < 2 {
		t.Fatalf("run did not shard: %s", statsLine)
	}
	var last, peak int64
	for i, line := range lines[:len(lines)-1] {
		token, nodes, ok := strings.Cut(line, "\t")
		tok, terr := strconv.ParseInt(token, 10, 64)
		n, nerr := strconv.ParseInt(nodes, 10, 64)
		if !ok || terr != nil || nerr != nil || tok <= last {
			t.Fatalf("series line %d = %q after token %d", i+1, line, last)
		}
		last, peak = tok, max(peak, n)
	}
	if peak != counters["peak_nodes"] || last != counters["tokens"] {
		t.Fatalf("series peaks at %d and ends at token %d, stats line: %s", peak, last, statsLine)
	}
}

func TestRunStrict(t *testing.T) {
	join := `<out>{ for $b in /bib/book return for $a in /bib/article return $a/title }</out>`
	code, _, stderr := runCmd(t, []string{"-q", join, "-strict"}, testDoc)
	if code != 1 || !strings.Contains(stderr, "strict streaming") {
		t.Fatalf("strict join: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCmd(t, []string{"-q", join}, testDoc); code != 0 {
		t.Fatalf("join without -strict must still run: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCmd(t, []string{"-q", `<out>{ for $b in /bib/book return $b/title }</out>`, "-strict"}, testDoc); code != 0 {
		t.Fatalf("bounded query under -strict: exit %d, stderr %q", code, stderr)
	}
}
