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
// dom} × skip on/off × join on/off × shards {0, 2, 4} × bytes/reader,
// the skip-off and join-off plans coming from WithoutSkip and
// WithoutJoin.
// Each run records every counter of Result, ShardsUsed, Chunks and the
// trace's phase names (not its times). A change to how statistics are
// produced, merged across shard workers or carried to the caller must
// leave testdata/stats.golden byte-identical; regenerate it with
// `make golden` only when a counter's meaning changes on purpose.
//
// Every cell also runs with RecordEvery 1, and recording must only
// observe: the recorded run writes the same bytes and reports the same
// row but for its series, which on the streaming engines holds one
// point per token and peaks at the run's peak.
//
// It also pins the fallback rule: a run that asked for shards and ran
// on one engine (ShardsUsed = 1) reports exactly what the shards=0 run
// of the same cell reports, so a fallback is indistinguishable from a
// sequential run.
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
	sequential := map[string]string{} // cell without shards= → shards=0 row
	fallbacks := 0
	for _, w := range workloads {
		q, err := gcx.Compile(w.entry.Text)
		if err != nil {
			t.Fatalf("%s: %v", w.id, err)
		}
		for _, eng := range engines {
			for _, noSkip := range []bool{false, true} {
				for _, noJoin := range []bool{false, true} {
					v := q
					if noSkip {
						v = gcx.WithoutSkip(v)
					}
					if noJoin {
						v = gcx.WithoutJoin(v)
					}
					for _, shards := range []int{0, 2, 4} {
						for _, reader := range []bool{false, true} {
							execute := func(recordEvery int64) (string, *gcx.Result, error) {
								opts := gcx.Options{Engine: eng.e, Format: w.format, Shards: shards, EnableTrace: true, RecordEvery: recordEvery}
								var out bytes.Buffer
								var res *gcx.Result
								var err error
								if reader {
									res, err = v.Execute(strings.NewReader(w.doc), &out, opts)
								} else {
									res, err = v.ExecuteBytes([]byte(w.doc), &out, opts)
								}
								return out.String(), res, err
							}
							out, res, err := execute(0)
							cell := fmt.Sprintf("%s engine=%s noskip=%t nojoin=%t reader=%t", w.id, eng.name, noSkip, noJoin, reader)
							fmt.Fprintf(&got, "%s engine=%s noskip=%t nojoin=%t shards=%d reader=%t: ",
								w.id, eng.name, noSkip, noJoin, shards, reader)
							row := statsGoldenRow(res, err)
							got.WriteString(row)
							// The recorded sibling: the same bytes and the same
							// row but for series=, a point per token on the
							// streaming engines, none on the DOM oracle.
							rout, rres, rerr := execute(1)
							var series []gcx.SeriesPoint
							if rres != nil {
								rcopy := *rres
								series, rcopy.Series = rres.Series, nil
								rres = &rcopy
							}
							if rrow := statsGoldenRow(rres, rerr); rrow != row || rout != out {
								t.Errorf("%s shards=%d: recording moved the run (identical output %v)\n got: %s want: %s", cell, shards, rout == out, rrow, row)
							}
							var peak int64
							for _, p := range series {
								peak = max(peak, p.Nodes)
							}
							switch {
							case rerr != nil:
							case eng.e == gcx.EngineDOM && len(series) != 0:
								t.Errorf("%s shards=%d: the DOM oracle recorded %d points", cell, shards, len(series))
							case eng.e != gcx.EngineDOM && (int64(len(series)) != rres.TokensProcessed || peak != rres.PeakBufferedNodes):
								t.Errorf("%s shards=%d: %d points peaking at %d, want %d peaking at %d",
									cell, shards, len(series), peak, rres.TokensProcessed, rres.PeakBufferedNodes)
							}
							switch {
							case shards == 0:
								sequential[cell] = row
							case err == nil && res.ShardsUsed == 1:
								fallbacks++
								if row != sequential[cell] {
									t.Errorf("%s shards=%d fell back but differs from shards=0:\n got: %s want: %s", cell, shards, row, sequential[cell])
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d fallback rows equal their shards=0 sibling", fallbacks)
	compareGolden(t, "testdata/stats.golden", got.Bytes())
}

// statsGoldenRow renders one run of TestStatsGolden: every counter,
// the series length and the trace's phase names, or the error.
func statsGoldenRow(res *gcx.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	var phases []string
	for _, p := range res.Trace {
		phases = append(phases, p.Phase)
	}
	return fmt.Sprintf(
		"tokens=%d peak_nodes=%d peak_bytes=%d final_nodes=%d appended=%d purged=%d output_bytes=%d "+
			"bytes_skipped=%d tags_skipped=%d subtrees_skipped=%d join_probe=%d join_build=%d join_matches=%d "+
			"shards_used=%d chunks=%d series=%d trace=%s\n",
		res.TokensProcessed, res.PeakBufferedNodes, res.PeakBufferedBytes, res.FinalBufferedNodes,
		res.TotalAppended, res.TotalPurged, res.OutputBytes,
		res.BytesSkipped, res.TagsSkipped, res.SubtreesSkipped,
		res.JoinProbeTuples, res.JoinBuildTuples, res.JoinMatches,
		res.ShardsUsed, res.Chunks, len(res.Series), strings.Join(phases, ","))
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
