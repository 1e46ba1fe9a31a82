package gcx_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/core"
	"gcx/internal/xmark"
)

// TestLoopCursorPeak pins the exact buffer peaks of the loop cursor:
// a binding is pinned only while its body runs, so a finished binding
// is purged before the next one is buffered, and no peak holds two
// bindings of one loop side by side (DESIGN.md §13). Q1 peaks at site,
// people and one person; E1 and Q6 at site, regions, one region and one
// item, and a sharded Q6 at one node fewer; Q8 and Q9 at site and one
// build tuple on its way into the join's table: closed_auctions,
// closed_auction, its key element (buyer, itemref), price and the
// price's text. Each peak is the
// same at 1 and 4 MiB on both backings, and every sequential run
// balances and leaves nothing buffered.
func TestLoopCursorPeak(t *testing.T) {
	cases := []struct {
		id, query string
		format    core.Format
		peak      int64
		// sharded is the peak of each worker at 2 and 4 shards; 0 runs
		// no sharded case.
		sharded int64
	}{
		{"Q1", xmark.Queries["Q1"].Text, core.FormatXML, 3, 0},
		{"E1", queryE1, core.FormatXML, 4, 0},
		{"Q6", xmark.Queries["Q6"].Text, core.FormatXML, 4, 3},
		{"Q8", xmark.Queries["Q8"].Text, core.FormatXML, 6, 0},
		{"Q9", xmark.Queries["Q9"].Text, core.FormatXML, 6, 0},
		{"J1", xmark.NDJSONQueries["J1"].Text, core.FormatNDJSON, 4, 0},
	}
	for _, size := range []int64{1 << 20, 4 << 20} {
		xml := []byte(xmarkDoc(t, size))
		ndjson, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: size, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			plan, err := core.Compile(c.query)
			if err != nil {
				t.Fatal(err)
			}
			doc := xml
			if c.format == core.FormatNDJSON {
				doc = []byte(ndjson)
			}
			var want string
			for _, r := range []func() io.Reader{nil, func() io.Reader { return bytes.NewReader(doc) }} {
				got, res := runBalanced(t, plan, c.format, doc, r)
				if res.PeakBufferedNodes != c.peak {
					t.Errorf("%s at %d bytes (reader %v): peak %d, want %d", c.id, size, r != nil, res.PeakBufferedNodes, c.peak)
				}
				want = got
			}
			if c.sharded == 0 {
				continue
			}
			q := gcx.MustCompile(c.query)
			for _, shards := range []int{2, 4} {
				for _, reader := range []bool{false, true} {
					var out strings.Builder
					var res *gcx.Result
					opts := gcx.Options{Shards: shards}
					if reader {
						res, err = q.Execute(bytes.NewReader(doc), &out, opts)
					} else {
						res, err = q.ExecuteBytes(doc, &out, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					if res.ShardsUsed < 2 || out.String() != want {
						t.Fatalf("%s at %d bytes, %d shards (reader %v): %d shards used, output equal %v",
							c.id, size, shards, reader, res.ShardsUsed, out.String() == want)
					}
					if res.PeakBufferedNodes != c.sharded {
						t.Errorf("%s at %d bytes, %d shards (reader %v): peak %d, want %d",
							c.id, size, shards, reader, res.PeakBufferedNodes, c.sharded)
					}
				}
			}
		}
	}
}
