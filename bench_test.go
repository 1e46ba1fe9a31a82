// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results). `make paper` runs the
// Fig* and Ablation* families; they are the only reproduction of the
// paper's tables. Committed and gated numbers come from gcxperf
// (`make perf-baseline`, `make perf-gate`), not from here.
//
//	BenchmarkFig3b, BenchmarkFig3c       — Fig. 3(b,c) buffer plots
//	BenchmarkFig4a_Q6, BenchmarkFig4b_Q8 — Fig. 4(a,b) XMark buffer plots
//	BenchmarkFig5                        — Fig. 5 time/memory table
//	BenchmarkAblationDiscipline          — GCX vs. projection-only vs. DOM
//	BenchmarkAblationJoin                — hash join vs. nested loops (Q8, Q9)
//	BenchmarkSubstrateTokenizer/Projection — substrate throughput
//	BenchmarkSerializer                  — the XML and JSON sinks alone
//	BenchmarkSkipQ1                      — gcxperf's xml-skip, for `make profile`
//	BenchmarkEmitE1                      — gcxperf's xml-emit, likewise
//	BenchmarkFilterJ1                    — gcxperf's ndjson-filter, likewise
//	BenchmarkStreamQ6                    — the engine half of gcxperf's serve-stream
//	BenchmarkJoinQ8                      — gcxperf's xml-join query alone, likewise
//
// Custom metrics: peak_nodes (buffer high watermark, the paper's
// y-axis), peak_KB (estimated buffered bytes).
package gcx_test

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/core"
	"gcx/internal/projection"
	"gcx/internal/xmark"
	"gcx/internal/xmltok"
)

// xmarkDocs caches generated documents per size so that generation cost
// stays out of the timed loops.
var xmarkDocs = map[int64]string{}

func xmarkDoc(b testing.TB, size int64) string {
	if doc, ok := xmarkDocs[size]; ok {
		return doc
	}
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: size, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	xmarkDocs[size] = doc
	return doc
}

func runQuery(b *testing.B, q *gcx.Query, doc string, opts gcx.Options) *gcx.Result {
	b.Helper()
	res, err := q.Execute(strings.NewReader(doc), io.Discard, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchBufferPlot runs a query repeatedly and reports buffer watermarks.
func benchBufferPlot(b *testing.B, query, doc string, opts gcx.Options) {
	q, err := gcx.Compile(query)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	var res *gcx.Result
	for i := 0; i < b.N; i++ {
		res = runQuery(b, q, doc, opts)
	}
	b.ReportMetric(float64(res.PeakBufferedNodes), "peak_nodes")
	b.ReportMetric(float64(res.PeakBufferedBytes)/1024, "peak_KB")
}

// BenchmarkFig3b — paper Figure 3(b): 9×article + 1×book; the buffer
// oscillates and stays bounded (peak 6 nodes in the paper and in a
// recording run; this run prunes each decided article and peaks at 5).
func BenchmarkFig3b(b *testing.B) {
	benchBufferPlot(b, xmark.PaperQuery, xmark.BibDocument(xmark.Fig3bKinds()), gcx.Options{})
}

// BenchmarkFig3c — paper Figure 3(c): 9×book + 1×article; books retain
// book+title pairs, 23 nodes buffered at </bib>.
func BenchmarkFig3c(b *testing.B) {
	benchBufferPlot(b, xmark.PaperQuery, xmark.BibDocument(xmark.Fig3cKinds()), gcx.Options{})
}

// BenchmarkFig4a_Q6 — paper Figure 4(a): XMark Q6 streams items one at
// a time; the buffer stays tiny and empties after the regions section.
func BenchmarkFig4a_Q6(b *testing.B) {
	benchBufferPlot(b, xmark.Queries["Q6"].Text, xmarkDoc(b, 1<<20), gcx.Options{})
}

// BenchmarkFig4b_Q8 — paper Figure 4(b): the value join buffers people
// and closed_auctions; memory is linear in the input.
func BenchmarkFig4b_Q8(b *testing.B) {
	benchBufferPlot(b, xmark.Queries["Q8"].Text, xmarkDoc(b, 1<<20), gcx.Options{})
}

// fig5MB is the document-size axis of BenchmarkFig5 in MB. The default
// keeps CI's bench smoke short; the paper's column set is
// `-fig5.mb 10,50,100,200` (slow, and the dom cells hold the whole
// document).
var fig5MB = flag.String("fig5.mb", "1,4", "BenchmarkFig5 document sizes in MB, comma-separated")

// BenchmarkFig5 — the paper's Figure 5 table: queries × document sizes
// × engines, time per run plus memory watermarks.
func BenchmarkFig5(b *testing.B) {
	var sizes []int64
	for _, s := range strings.Split(*fig5MB, ",") {
		mb, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil || mb <= 0 {
			b.Fatalf("-fig5.mb: malformed size %q", s)
		}
		sizes = append(sizes, mb<<20)
	}
	engines := []struct {
		name string
		opt  gcx.Engine
	}{
		{"gcx", gcx.EngineGCX},
		{"projection", gcx.EngineProjectionOnly},
		{"dom", gcx.EngineDOM},
	}
	for _, qid := range []string{"Q1", "Q6", "Q8", "Q9", "Q13", "Q20"} {
		entry := xmark.Queries[qid]
		q, err := gcx.Compile(entry.Text)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range sizes {
			doc := xmarkDoc(b, size)
			for _, eng := range engines {
				name := fmt.Sprintf("%s/%dMB/%s", qid, size>>20, eng.name)
				b.Run(name, func(b *testing.B) {
					b.SetBytes(int64(len(doc)))
					var res *gcx.Result
					for i := 0; i < b.N; i++ {
						res = runQuery(b, q, doc, gcx.Options{Engine: eng.opt})
					}
					b.ReportMetric(float64(res.PeakBufferedNodes), "peak_nodes")
					b.ReportMetric(float64(res.PeakBufferedBytes)/1024, "peak_KB")
				})
			}
		}
	}
}

// BenchmarkAblationDiscipline — DESIGN.md A2: what each analysis stage
// buys. Full buffering (dom) → static projection (projection) → static
// + dynamic GC (gcx), on a streamable query and on the blocking join.
func BenchmarkAblationDiscipline(b *testing.B) {
	doc := xmarkDoc(b, 1<<20)
	for _, qid := range []string{"Q1", "Q8"} {
		q, err := gcx.Compile(xmark.Queries[qid].Text)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []struct {
			name string
			opt  gcx.Engine
		}{{"dom", gcx.EngineDOM}, {"projection", gcx.EngineProjectionOnly}, {"gcx", gcx.EngineGCX}} {
			b.Run(qid+"/"+eng.name, func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				var res *gcx.Result
				for i := 0; i < b.N; i++ {
					res = runQuery(b, q, doc, gcx.Options{Engine: eng.opt})
				}
				b.ReportMetric(float64(res.PeakBufferedNodes), "peak_nodes")
				b.ReportMetric(float64(res.PeakBufferedBytes)/1024, "peak_KB")
			})
		}
	}
}

// BenchmarkAblationJoin — DESIGN.md §10: the streaming hash join
// operator against the same plan evaluated as nested loops (the build
// loop re-run per probe binding), on the two XMark joins. Outputs are
// byte-identical; the operator holds the build side once, in its table.
func BenchmarkAblationJoin(b *testing.B) {
	for _, qid := range []string{"Q8", "Q9"} {
		q, err := gcx.Compile(xmark.Queries[qid].Text)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int64{1 << 20, 4 << 20} {
			doc := xmarkDoc(b, size)
			for _, variant := range []struct {
				name string
				q    *gcx.Query
			}{{"join", q}, {"nested", gcx.WithoutJoin(q)}} {
				b.Run(fmt.Sprintf("%s/%dMB/%s", qid, size>>20, variant.name), func(b *testing.B) {
					b.SetBytes(int64(len(doc)))
					var res *gcx.Result
					for i := 0; i < b.N; i++ {
						res = runQuery(b, variant.q, doc, gcx.Options{})
					}
					b.ReportMetric(float64(res.PeakBufferedNodes), "peak_nodes")
				})
			}
		}
	}
}

// BenchmarkShardedExecute measures sharded data-parallel execution
// (DESIGN.md §6) on XMark Q1 over a partition-friendly input: shards=1
// is the sequential engine, higher counts split the stream at
// /site/people/person and run one engine instance per worker. On
// multi-core hosts the gain is parallelism; even on one core sharding
// wins because the splitter's raw byte scan replaces full engine
// processing for all non-record content.
func BenchmarkShardedExecute(b *testing.B) {
	doc := xmarkDoc(b, 4<<20)
	q, err := gcx.Compile(xmark.Queries["Q1"].Text)
	if err != nil {
		b.Fatal(err)
	}
	if !q.Shardable() {
		b.Fatal("Q1 must be shardable")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			var res *gcx.Result
			for i := 0; i < b.N; i++ {
				res = runQuery(b, q, doc, gcx.Options{Shards: shards})
			}
			b.ReportMetric(float64(res.Chunks), "chunks")
			b.ReportMetric(float64(res.PeakBufferedNodes), "peak_nodes")
		})
	}
}

// BenchmarkSkippingExecute measures what projection-guided byte-level
// subtree skipping (DESIGN.md §7) buys on the sequential hot path:
// each query runs with skipping on (default) and off, over the same
// document. The skipped_KB metric is the per-run BytesSkipped — the
// share of the input the preprojector found dead and the
// engine fast-forwarded past without tokenizing — and tokens/op the
// tokens the source still delivered (dead children are not among them).
func BenchmarkSkippingExecute(b *testing.B) {
	doc := xmarkDoc(b, 4<<20)
	for _, qid := range []string{"Q1", "Q6", "Q13"} {
		q, err := gcx.Compile(xmark.Queries[qid].Text)
		if err != nil {
			b.Fatal(err)
		}
		for _, variant := range []struct {
			name string
			q    *gcx.Query
		}{{"skip", q}, {"noskip", gcx.WithoutSkip(q)}} {
			b.Run(qid+"/"+variant.name, func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				b.ReportAllocs()
				var res *gcx.Result
				for i := 0; i < b.N; i++ {
					res = runQuery(b, variant.q, doc, gcx.Options{})
				}
				b.ReportMetric(float64(res.BytesSkipped)/1024, "skipped_KB")
				b.ReportMetric(float64(res.TokensProcessed), "tokens/op")
			})
		}
	}
}

// BenchmarkParallelExecute measures the concurrent-service path: one
// shared compiled query, executions fanned out over GOMAXPROCS
// goroutines (b.RunParallel), allocations reported so the pooling of
// tokenizer scratch, serializer buffers and buffer-manager node slabs
// stays measurable.
func BenchmarkParallelExecute(b *testing.B) {
	doc := xmarkDoc(b, 1<<20)
	for _, qid := range []string{"Q1", "Q6"} {
		q, err := gcx.Compile(xmark.Queries[qid].Text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(qid, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := q.Execute(strings.NewReader(doc), io.Discard, gcx.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkQueryCache measures the hot-query service path: concurrent
// lookups of an already-compiled query followed by execution, the
// steady state of cmd/gcxd under load.
func BenchmarkQueryCache(b *testing.B) {
	doc := xmark.BibDocument(xmark.Fig3bKinds())
	cache := gcx.NewQueryCache(16)
	if _, err := cache.Get(xmark.PaperQuery); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q, err := cache.Get(xmark.PaperQuery)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := q.Execute(strings.NewReader(doc), io.Discard, gcx.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubstrateTokenizer measures raw tokenizer throughput — the
// lower bound on any streaming engine's runtime.
func BenchmarkSubstrateTokenizer(b *testing.B) {
	doc := xmarkDoc(b, 1<<20)
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		tz := xmltok.NewTokenizer(strings.NewReader(doc))
		for {
			_, err := tz.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		tz.Release()
	}
}

// BenchmarkSkipQ1 is gcxperf's xml-skip workload as a Go benchmark
// (`make profile BENCH=SkipQ1`): XMark Q1 over 16 MiB on the zero-copy
// path. Nearly every byte is raw-skipped, and every person but person0
// is decided at its start tag, so tokens/op and appended/op count what
// still reaches the preprojector and the buffer.
func BenchmarkSkipQ1(b *testing.B) {
	doc := []byte(xmarkDoc(b, 16<<20))
	q, err := gcx.Compile(xmark.Queries["Q1"].Text)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	var res *gcx.Result
	for i := 0; i < b.N; i++ {
		if res, err = q.ExecuteBytes(doc, io.Discard, gcx.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TokensProcessed), "tokens/op")
	b.ReportMetric(float64(res.TotalAppended), "appended/op")
}

// BenchmarkEmitE1 is gcxperf's xml-emit workload as a Go benchmark, so
// that `make profile BENCH=EmitE1` shows where its time goes: query E1
// (hotpath_test.go) over 16 MiB on the zero-copy path emits every item
// subtree, which makes the tokenizer, the projection, the buffer and
// the serializer all work.
func BenchmarkEmitE1(b *testing.B) {
	doc := []byte(xmarkDoc(b, 16<<20))
	q, err := gcx.Compile(queryE1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExecuteBytes(doc, io.Discard, gcx.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterJ1 is gcxperf's ndjson-filter workload in the same
// form (`make profile BENCH=FilterJ1`): query J1 over a 16 MiB bid log
// on the zero-copy path keeps two small members of every record and
// skips the rest, so nearly all of its time is the JSON tokenizer's —
// member tokens and raw skips.
func BenchmarkFilterJ1(b *testing.B) {
	doc, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 16 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q, err := gcx.Compile(xmark.NDJSONQueries["J1"].Text)
	if err != nil {
		b.Fatal(err)
	}
	data := []byte(doc)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExecuteBytes(data, io.Discard, gcx.Options{Format: gcx.FormatNDJSON}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamQ6 is the engine half of gcxperf's serve-stream
// workload: Q6 over 4 MiB on the reader backing, the path gcxd takes for
// a body above its bytes limit and cmd/gcx for a pipe. Its allocs/op is
// what `make profile-allocs BENCH=StreamQ6` breaks down.
func BenchmarkStreamQ6(b *testing.B) {
	doc := xmarkDoc(b, 4<<20)
	q, err := gcx.Compile(xmark.Queries["Q6"].Text)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(readerOnly{strings.NewReader(doc)}, io.Discard, gcx.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinQ8 is XMark Q8 — gcxperf's xml-join query — over 4 MiB
// on the zero-copy path, without BenchmarkFig5's DOM cells, so that
// `make profile-allocs BENCH=JoinQ8` breaks down the join operator's
// allocations: the probe captures, the build table and the replay.
func BenchmarkJoinQ8(b *testing.B) {
	doc := []byte(xmarkDoc(b, 4<<20))
	q, err := gcx.Compile(xmark.Queries["Q8"].Text)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExecuteBytes(doc, io.Discard, gcx.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// readerOnly hides everything of a reader but Read (Len, WriteTo,
// Seek), so that no layer can recognise an in-memory input behind it.
type readerOnly struct{ io.Reader }

// BenchmarkSerializer measures the two sinks alone: the tokens of the
// same document, held in memory, rendered to a discarding writer. With
// BenchmarkSubstrateTokenizer it brackets what the front and back end
// cost a run that keeps everything.
func BenchmarkSerializer(b *testing.B) {
	doc := xmarkDoc(b, 1<<20)
	var toks []xmltok.Token
	tz := xmltok.NewTokenizerBytes([]byte(doc))
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		toks = append(toks, tok)
	}
	for _, format := range []core.Format{core.FormatXML, core.FormatNDJSON} {
		b.Run(format.String(), func(b *testing.B) {
			b.ReportAllocs()
			var written int64
			for i := 0; i < b.N; i++ {
				sink, err := core.NewSink(format, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				for _, tok := range toks {
					switch tok.Kind {
					case xmltok.StartElement:
						sink.StartElement(tok.Name, tok.Attrs)
					case xmltok.EndElement:
						sink.EndElement(tok.Name)
					case xmltok.Text:
						sink.Text(tok.Text)
					}
				}
				if err := sink.Flush(); err != nil {
					b.Fatal(err)
				}
				written = sink.BytesWritten()
				sink.Release()
			}
			b.SetBytes(written)
		})
	}
}

// BenchmarkSubstrateProjection measures the preprojector over the Q8
// role set: the cost of stream filtering plus buffering, without
// evaluation.
func BenchmarkSubstrateProjection(b *testing.B) {
	doc := xmarkDoc(b, 1<<20)
	plan, err := core.Compile(xmark.Queries["Q8"].Text)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := buffer.New()
		buf.DisableGC = true
		p := projection.New(xmltok.NewTokenizer(strings.NewReader(doc)), buf, plan.RolePaths())
		if err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFirstWitness — DESIGN.md A4: what the paper's
// first-witness [1] pruning (role r4) buys on existence conditions over
// wide subtrees. Without it, every candidate price is buffered until
// the iteration's sign-off.
func BenchmarkAblationFirstWitness(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 100; i++ {
		sb.WriteString("<book><title>t</title>")
		for j := 0; j < 20; j++ {
			sb.WriteString("<price>9</price>")
		}
		sb.WriteString("</book>")
	}
	sb.WriteString("</bib>")
	doc := sb.String()
	const query = `<r>{ for $x in /bib/* return
	   if (exists $x/price) then $x/title else () }</r>`

	for _, variant := range []struct {
		name    string
		disable bool
	}{{"firstWitness", false}, {"allWitnesses", true}} {
		q, err := gcx.CompileAnalysis(query, analysis.Options{DisableFirstWitness: variant.disable})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(variant.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			var res *gcx.Result
			for i := 0; i < b.N; i++ {
				res = runQuery(b, q, doc, gcx.Options{})
			}
			b.ReportMetric(float64(res.PeakBufferedNodes), "peak_nodes")
		})
	}
}

// BenchmarkAblationGranularity — DESIGN.md A5: node-granular roles (the
// paper's contribution) versus coarse subtree-granular relevance. The
// coarse model projects whole subtrees whenever any part is used.
func BenchmarkAblationGranularity(b *testing.B) {
	doc := xmarkDoc(b, 1<<20)
	for _, qid := range []string{"Q8", "Q20"} {
		for _, variant := range []struct {
			name   string
			coarse bool
		}{{"node", false}, {"subtree", true}} {
			q, err := gcx.CompileAnalysis(xmark.Queries[qid].Text, analysis.Options{CoarseGranularity: variant.coarse})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(qid+"/"+variant.name, func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				var res *gcx.Result
				for i := 0; i < b.N; i++ {
					res = runQuery(b, q, doc, gcx.Options{})
				}
				b.ReportMetric(float64(res.PeakBufferedNodes), "peak_nodes")
				b.ReportMetric(float64(res.PeakBufferedBytes)/1024, "peak_KB")
			})
		}
	}
}
