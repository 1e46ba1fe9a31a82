package main

import (
	"encoding/xml"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFig3b: the plot is one token<TAB>nodes line per token, and its
// peak is the peak the run of the same query and document reports.
// Recording only observes, so this is the run BenchmarkFig3b measures:
// it prunes each decided article and peaks at 5, one under the
// paper's 6.
func TestFig3b(t *testing.T) {
	code, out, stderr := runCmd("-fig", "3b")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	_, res, err := gcx.MustCompile(xmark.PaperQuery).ExecuteString(xmark.BibDocument(xmark.Fig3bKinds()), gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	var peak int64
	for i, line := range lines {
		token, nodes, ok := strings.Cut(line, "\t")
		tok, terr := strconv.ParseInt(token, 10, 64)
		n, nerr := strconv.ParseInt(nodes, 10, 64)
		if !ok || terr != nil || nerr != nil || tok != int64(i+1) {
			t.Fatalf("line %d = %q, want %d<TAB>nodes", i+1, line, i+1)
		}
		peak = max(peak, n)
	}
	if int64(len(lines)) != res.TokensProcessed || peak != res.PeakBufferedNodes || peak != 5 {
		t.Fatalf("%d lines with peak %d, want %d with peak %d", len(lines), peak, res.TokensProcessed, res.PeakBufferedNodes)
	}
}

// TestSVG: -svg writes a well-formed SVG document beside the lines.
func TestSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig.svg")
	if code, _, stderr := runCmd("-fig", "3c", "-svg", path); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := xml.NewDecoder(f)
	var root string
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("malformed SVG: %v", err)
		}
		if se, ok := tok.(xml.StartElement); ok && root == "" {
			root = se.Name.Local
		}
	}
	if root != "svg" {
		t.Fatalf("root element %q, want svg", root)
	}
}

// TestUsageErrors: an unknown figure or none is a usage error, and so
// are the flags of the former custom plot, -q, -i and -every, whose
// work is gcx -plot's.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "5"},
		{"-q", "query.xq", "-i", "doc.xml"},
		{"-fig", "3b", "-every", "10"},
		{},
		{"-nope"},
	} {
		if code, out, stderr := runCmd(args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, stdout %q, stderr: %s", args, code, out, stderr)
		}
	}
}

// TestModeRemoved: sign-offs have one timing (deferred), so the former
// -mode flag is a usage error like any unknown flag.
func TestModeRemoved(t *testing.T) {
	code, out, stderr := runCmd("-fig", "3b", "-mode", "eager")
	if code != 2 || out != "" || !strings.Contains(stderr, "flag provided but not defined: -mode") {
		t.Fatalf("exit %d, stdout %q, stderr: %s", code, out, stderr)
	}
}
