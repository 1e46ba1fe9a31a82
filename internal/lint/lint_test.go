package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEventBoundaryFixture: the seeded violation fires, the allowed
// package and the test file do not.
func TestEventBoundaryFixture(t *testing.T) {
	findings, err := Run("testdata/eventboundary", []*Analyzer{EventBoundary})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want exactly the seeded violation:\n%v", len(findings), findings)
	}
	f := findings[0]
	if !strings.Contains(f.Pos.Filename, "output/bad.go") {
		t.Errorf("finding in %s, want output/bad.go", f.Pos.Filename)
	}
	if !strings.Contains(f.Message, "gcx/internal/xmltok") || !strings.Contains(f.Message, "internal/event") {
		t.Errorf("message lacks the import and the remedy: %s", f.Message)
	}
}

// TestCtxPollFixture: all three seeded pull-without-poll loops fire
// (two in the engine fixture, one in the join fixture); the polling
// idioms and the out-of-scope package do not.
func TestCtxPollFixture(t *testing.T) {
	findings, err := Run("testdata/ctxpoll", []*Analyzer{CtxPoll})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("findings = %d, want the three seeded violations:\n%v", len(findings), findings)
	}
	for _, f := range findings {
		if !strings.Contains(f.Pos.Filename, "engine/loops.go") && !strings.Contains(f.Pos.Filename, "join/loops.go") {
			t.Errorf("finding outside the fixture engine/join packages: %v", f)
		}
	}
}

// TestObsNamesFixture: the seeded violations fire — two malformed
// metric names in the server fixture and one bare "log" import in the
// gcxd command fixture — while the conforming names, the computed name,
// the test file and the slog-using package stay silent.
func TestObsNamesFixture(t *testing.T) {
	findings, err := Run("testdata/obsnames", []*Analyzer{ObsNames})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("findings = %d, want the three seeded violations:\n%v", len(findings), findings)
	}
	var names, logs int
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, "snake_case"):
			names++
			if !strings.Contains(f.Pos.Filename, "server/bad.go") {
				t.Errorf("name finding outside server/bad.go: %v", f)
			}
		case strings.Contains(f.Message, "log/slog"):
			logs++
			if !strings.Contains(f.Pos.Filename, "cmd/gcxd/bad.go") {
				t.Errorf("log finding outside cmd/gcxd/bad.go: %v", f)
			}
		default:
			t.Errorf("unexpected finding: %v", f)
		}
	}
	if names != 2 || logs != 1 {
		t.Errorf("names = %d, logs = %d, want 2 and 1", names, logs)
	}
}

// TestObsNamesNotVacuous: the pass recognizes the real server's metric
// registrations — otherwise a clean repo run proves nothing.
func TestObsNamesNotVacuous(t *testing.T) {
	files, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if f.Test || !importsPath(f, "gcx/internal/obs") {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if metricNameLit(n) != nil {
				checked++
			}
			return true
		})
	}
	if checked < 20 {
		t.Fatalf("obsnames checked %d literal metric names, want >= 20 (the gcxd registry and the statistics table); the pass has gone vacuous", checked)
	}
}

// TestHotBytesFixture: the two seeded per-byte calls fire; the
// cursor-idiom file, the test file and the out-of-scope package do not.
func TestHotBytesFixture(t *testing.T) {
	findings, err := Run("testdata/hotbytes", []*Analyzer{HotBytes})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want the two seeded violations:\n%v", len(findings), findings)
	}
	var read, unread int
	for _, f := range findings {
		if !strings.Contains(f.Pos.Filename, "xmltok/bad.go") {
			t.Errorf("finding outside xmltok/bad.go: %v", f)
		}
		switch {
		case strings.Contains(f.Message, "UnreadByte"):
			unread++
		case strings.Contains(f.Message, "ReadByte"):
			read++
		}
		if !strings.Contains(f.Message, "block cursor") {
			t.Errorf("message lacks the remedy: %s", f.Message)
		}
	}
	if read != 1 || unread != 1 {
		t.Errorf("read = %d, unread = %d, want 1 and 1", read, unread)
	}
}

// TestHotBytesNotVacuous: the pass actually walks the real tokenizer
// packages, and those packages still use the cursor's sanctioned
// per-byte calls (Byte/Unread) in their slow paths — proving the hot
// packages are in scope and call-expression matching resolves. If this
// count drops to zero the scope map or the packages moved and the pass
// checks nothing.
func TestHotBytesNotVacuous(t *testing.T) {
	files, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	hotFiles, cursorCalls := 0, 0
	for _, f := range files {
		if f.Test || !hotPkgs[f.PkgPath] {
			continue
		}
		hotFiles++
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name := calleeName(call); name == "Byte" || name == "Unread" || name == "Window" || name == "SkipPast" {
					cursorCalls++
				}
			}
			return true
		})
	}
	if hotFiles < 6 {
		t.Fatalf("hotbytes scope covers %d files, want >= 6 (xmltok+jsontok); the scope map has gone vacuous", hotFiles)
	}
	if cursorCalls < 20 {
		t.Fatalf("hotbytes packages make %d cursor calls, want >= 20; the byte path has moved and the pass checks nothing", cursorCalls)
	}
}

// TestRepoClean: the real repository satisfies every pass — the
// invariant `make check` and CI enforce.
func TestRepoClean(t *testing.T) {
	findings, err := Run("../..", All)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo violation: %v", f)
	}
}

// TestAllowListsNameRealPackages: every package a pass's allow-list
// names inside this module is a directory of it — an entry left behind
// by a deleted package would silently allow whatever takes the path
// next. Entries under a directory with a go.mod of its own belong to
// that module and are not checked here.
func TestAllowListsNameRealPackages(t *testing.T) {
	const root = "../.."
	module := modulePath(root)
	var pkgs []string
	for _, list := range []map[string]bool{tokenizerPkgs, tokenizerImporters, pollPkgs, hotPkgs, slogOnlyPkgs} {
		pkgs = append(pkgs, sortedKeys(list)...)
	}
entries:
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg, module+"/")
		if !ok {
			t.Errorf("allow-list entry %s is outside module %s", pkg, module)
			continue
		}
		dir := root
		for _, elem := range strings.Split(rel, "/") {
			dir = filepath.Join(dir, elem)
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				continue entries
			}
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Errorf("allow-list entry %s names no directory of this module", pkg)
		}
	}
}

// TestCtxPollNotVacuous: the pass recognizes the repo's real pull loops
// (engine's ensure, shard's splitter producer) — otherwise a clean run
// proves nothing.
func TestCtxPollNotVacuous(t *testing.T) {
	files, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	pullLoops := 0
	for _, f := range files {
		if f.Test || !pollPkgs[f.PkgPath] {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if body := loopBody(n); body != nil && pullsInput(body) {
				pullLoops++
			}
			return true
		})
	}
	if pullLoops == 0 {
		t.Fatal("ctxpoll matched no pull loop in engine/shard; the pass has gone vacuous")
	}
}

// TestLoadPkgPaths: import paths derive from the module path and the
// directory layout.
func TestLoadPkgPaths(t *testing.T) {
	files, err := Load("testdata/ctxpoll")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"gcx/internal/engine": false,
		"gcx/internal/join":   false,
		"gcx/internal/other":  false,
	}
	for _, f := range files {
		if _, ok := want[f.PkgPath]; ok {
			want[f.PkgPath] = true
		} else {
			t.Errorf("unexpected package path %q for %s", f.PkgPath, f.Path)
		}
	}
	for pkg, seen := range want {
		if !seen {
			t.Errorf("package %s not loaded", pkg)
		}
	}
}

func TestLookup(t *testing.T) {
	if Lookup("eventboundary") != EventBoundary || Lookup("ctxpoll") != CtxPoll || Lookup("obsnames") != ObsNames || Lookup("hotbytes") != HotBytes {
		t.Error("Lookup does not resolve registered passes")
	}
	if Lookup("nope") != nil {
		t.Error("Lookup resolved an unknown pass")
	}
}
