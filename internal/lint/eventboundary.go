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
// directly: the event-layer front ends (core), the engines that predate
// or bypass it by design (dom, baseline), the analyses and splitters
// that work on raw bytes (analysis, shard, schema), the one package of
// the benchmark module that measures the splitters below the event
// layer (gcxperf/rawsplit, today spelled _rawsplit so that Load skips
// it), and the tokenizer packages themselves. Everything else must go
// through internal/event sources and sinks (DESIGN.md §8) — that
// boundary is what lets a new input format plug in without touching the
// engine.
var tokenizerImporters = map[string]bool{
	"gcx/gcxperf/rawsplit":  true,
	"gcx/internal/analysis": true,
	"gcx/internal/baseline": true,
	"gcx/internal/core":     true,
	"gcx/internal/dom":      true,
	"gcx/internal/schema":   true,
	"gcx/internal/shard":    true,
	"gcx/internal/xmltok":   true,
	"gcx/internal/jsontok":  true,
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
