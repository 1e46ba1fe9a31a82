package lint

import (
	"fmt"
	"strconv"
	"strings"
)

// tokenizerPkgs are the raw byte-level tokenizer packages hidden behind
// the event layer.
var tokenizerPkgs = map[string]bool{
	"gcx/internal/xmltok":  true,
	"gcx/internal/jsontok": true,
}

// tokenizerImporters are the packages allowed to touch the tokenizers
// directly: the event-layer front ends (core), the sharded runner, which
// splits raw bytes and serializes the constant wrapper (shard), the one
// package of the benchmark module that measures the splitters below the
// event layer (gcxperf/rawsplit, today spelled _rawsplit so that Load
// skips it), and the tokenizer packages themselves. Everything else,
// the static analysis and the DOM engine included, must go through
// internal/event sources, sinks and tokens (DESIGN.md §8) — that
// boundary is what lets a new input format plug in without touching an
// evaluator. TestAllowListEntriesNeeded fails on an entry that no
// longer imports a tokenizer.
var tokenizerImporters = map[string]bool{
	"gcx/gcxperf/rawsplit": true,
	"gcx/internal/core":    true,
	"gcx/internal/shard":   true,
	"gcx/internal/xmltok":  true,
	"gcx/internal/jsontok": true,
}

// EventBoundary reports imports of the tokenizer packages from outside
// the allowed front-end set. Test files are exempt: differential tests
// and benchmarks legitimately drive tokenizers head-to-head.
var EventBoundary = &Analyzer{
	Name: "eventboundary",
	Doc:  "restrict xmltok/jsontok imports to the event-layer front ends",
	Run: func(files []*File) []Finding {
		var out []Finding
		for _, f := range files {
			if f.Test || tokenizerImporters[f.PkgPath] {
				continue
			}
			for _, imp := range f.AST.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !tokenizerPkgs[path] {
					continue
				}
				out = append(out, Finding{
					Pos:      f.Fset.Position(imp.Pos()),
					Analyzer: "eventboundary",
					Message: fmt.Sprintf(
						"package %s imports %s; only the event-layer front ends (%s) may use raw tokenizers — consume internal/event sources instead",
						f.PkgPath, path, strings.Join(sortedKeys(tokenizerImporters), ", ")),
				})
			}
		}
		return out
	},
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
