package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunRepoClean(t *testing.T) {
	// From this package's directory the module root is two levels up;
	// the ./... alias must resolve it the same way.
	for _, args := range [][]string{{"../.."}, {"./..."}} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 0 {
			t.Errorf("args %v: exit %d\nstdout: %s\nstderr: %s", args, code, out.String(), errb.String())
		}
	}
}

func TestRunSeededViolations(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-passes", "ctxpoll", "../../internal/lint/testdata/ctxpoll"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 on findings\nstderr: %s", code, errb.String())
	}
	if got := strings.Count(out.String(), "ctxpoll:"); got != 3 {
		t.Errorf("reported %d findings, want 3 (two engine, one join):\n%s", got, out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-passes", "bogus"},
		{"a", "b"},
		{"/nonexistent-root-without-gomod"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestFuzzSmokeListsEveryTarget holds the Makefile to its word: the
// fuzz-smoke target is the one list of fuzz targets, so every func Fuzz*
// in the tree has a line there naming it and its package, and no line
// names a target that is gone.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	const root = "../.."
	declared := map[string]bool{} // "FuzzName ./pkg/dir"
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg := "./" + filepath.ToSlash(rel)
		if rel == "." {
			pkg = "."
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			declared[string(m[1])+" "+pkg] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, found := strings.Cut(string(makefile), "\nfuzz-smoke:\n")
	if !found {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	listed := map[string]bool{}
	fuzzLine := regexp.MustCompile(`-fuzz (\w+) .* (\S+)$`)
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break // the recipe's end
		}
		m := fuzzLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("fuzz-smoke line without a target and a package: %q", line)
			continue
		}
		listed[m[1]+" "+m[2]] = true
	}
	for target := range declared {
		if !listed[target] {
			t.Errorf("%s is not in the Makefile's fuzz-smoke list, so CI never runs it", target)
		}
	}
	for target := range listed {
		if !declared[target] {
			t.Errorf("fuzz-smoke lists %s, which no test file declares", target)
		}
	}
}
