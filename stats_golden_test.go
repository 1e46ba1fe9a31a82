package gcx_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

// TestStatsGolden pins every statistic a run reports, over the whole
// execution matrix: the XMark and NDJSON catalogs × {gcx, projection,
// dom} × skip on/off × join on/off × shards {0, 2, 4} × bytes/reader.
// Each run records every counter of Result, ShardsUsed, Chunks and the
// trace's phase names (not its times). A change to how statistics are
// produced, merged across shard workers or carried to the caller must
// leave testdata/stats.golden byte-identical; regenerate it with
// `UPDATE_GOLDEN=1 go test -run TestStatsGolden .` only when a counter's meaning
// changes on purpose.
func TestStatsGolden(t *testing.T) {
	xml, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ndjson, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 128 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	type workload struct {
		id     string
		entry  xmark.Query
		doc    string
		format gcx.Format
	}
	var workloads []workload
	for _, id := range xmark.QueryIDs() {
		workloads = append(workloads, workload{id, xmark.Queries[id], xml, gcx.FormatXML})
	}
	for _, id := range []string{"J1", "J2", "J3"} {
		workloads = append(workloads, workload{id, xmark.NDJSONQueries[id], ndjson, gcx.FormatNDJSON})
	}
	engines := []struct {
		name string
		e    gcx.Engine
	}{{"gcx", gcx.EngineGCX}, {"projection", gcx.EngineProjectionOnly}, {"dom", gcx.EngineDOM}}

	var got bytes.Buffer
	for _, w := range workloads {
		q, err := gcx.Compile(w.entry.Text)
		if err != nil {
			t.Fatalf("%s: %v", w.id, err)
		}
		for _, eng := range engines {
			for _, noSkip := range []bool{false, true} {
				for _, noJoin := range []bool{false, true} {
					for _, shards := range []int{0, 2, 4} {
						for _, reader := range []bool{false, true} {
							opts := gcx.Options{
								Engine: eng.e, Format: w.format, Shards: shards,
								EnableAggregation:  w.entry.UsesAggregation,
								DisableSubtreeSkip: noSkip, DisableJoin: noJoin,
								EnableTrace: true,
							}
							var res *gcx.Result
							if reader {
								res, err = q.Execute(strings.NewReader(w.doc), discardWriter{}, opts)
							} else {
								res, err = q.ExecuteBytes([]byte(w.doc), discardWriter{}, opts)
							}
							fmt.Fprintf(&got, "%s engine=%s noskip=%t nojoin=%t shards=%d reader=%t: ",
								w.id, eng.name, noSkip, noJoin, shards, reader)
							if err != nil {
								fmt.Fprintf(&got, "error: %v\n", err)
								continue
							}
							var phases []string
							for _, p := range res.Trace {
								phases = append(phases, p.Phase)
							}
							fmt.Fprintf(&got,
								"tokens=%d peak_nodes=%d peak_bytes=%d final_nodes=%d appended=%d purged=%d output_bytes=%d "+
									"bytes_skipped=%d tags_skipped=%d subtrees_skipped=%d join_probe=%d join_build=%d join_matches=%d "+
									"shards_used=%d chunks=%d series=%d trace=%s\n",
								res.TokensProcessed, res.PeakBufferedNodes, res.PeakBufferedBytes, res.FinalBufferedNodes,
								res.TotalAppended, res.TotalPurged, res.OutputBytes,
								res.BytesSkipped, res.TagsSkipped, res.SubtreesSkipped,
								res.JoinProbeTuples, res.JoinBuildTuples, res.JoinMatches,
								res.ShardsUsed, res.Chunks, len(res.Series), strings.Join(phases, ","))
						}
					}
				}
			}
		}
	}
	compareGolden(t, "testdata/stats.golden", got.Bytes())
}

// compareGolden fails the test when got differs from the golden file,
// naming the first differing line; with UPDATE_GOLDEN set it rewrites the
// file first.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
