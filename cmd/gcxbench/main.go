// Command gcxbench regenerates the paper's Figure 5 table: evaluation
// time and memory high watermark for the XMark queries across document
// sizes, for the three buffering disciplines (GCX, static projection
// without GC, and full DOM buffering).
//
//	gcxbench                         # default: 1,2,5 MB
//	gcxbench -sizes 10,50 -queries Q1,Q8 -engines gcx,dom
//	gcxbench -paper                  # the paper's 10,50,100,200 MB
//	gcxbench -json BENCH_gcx.json    # machine-readable per-cell metrics
//
// With -json, every (query, size, engine) cell is also written to a
// JSON file: MB/s, ns/op, allocs/op, bytes skipped, buffer watermarks,
// plus a Go-benchmark-format line per cell so the file can be diffed
// across commits with benchstat (CI does this warn-only against the
// committed BENCH_gcx.json baseline; see Makefile's bench target).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"gcx"
	"gcx/internal/sizeparse"
	"gcx/internal/xmark"
	"gcx/internal/xmltok"
)

// benchEntry is one measured cell of the benchmark matrix.
type benchEntry struct {
	Query     string `json:"query"`
	SizeBytes int64  `json:"size_bytes"`
	Engine    string `json:"engine"`
	// Format is the input syntax of the cell: "" (historical XML cells,
	// kept stable for benchstat baselines) or "ndjson".
	Format string `json:"format,omitempty"`
	// InputPath says how the input reached the engine: "bytes" (the
	// zero-copy []byte fast path, DESIGN.md §12) or "reader" (streamed
	// through the refilling cursor). Empty on cells predating the split.
	InputPath    string  `json:"input_path,omitempty"`
	NsPerOp      int64   `json:"ns_per_op"`
	MBPerS       float64 `json:"mb_per_s"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesSkipped int64   `json:"bytes_skipped"`
	TagsSkipped  int64   `json:"tags_skipped"`
	PeakNodes    int64   `json:"peak_nodes"`
	PeakBytes    int64   `json:"peak_bytes"`
	OutputBytes  int64   `json:"output_bytes"`
	// GoBench is the cell in Go benchmark format, ready for benchstat.
	GoBench string `json:"gobench"`
}

// benchFile is the BENCH_gcx.json schema.
type benchFile struct {
	// Note documents how to regenerate the file.
	Note    string       `json:"note"`
	Entries []benchEntry `json:"entries"`
}

func main() {
	var (
		sizesFlag   = flag.String("sizes", "1,2,5", "document sizes in MB, comma-separated")
		queriesFlag = flag.String("queries", "Q1,Q6,Q8,Q9,Q13,Q20", "queries to run")
		ndjsonFlag  = flag.String("ndjson-queries", "J1,J2,J3", "NDJSON bid-log queries to run (empty disables the NDJSON cells)")
		enginesFlag = flag.String("engines", "gcx,projection,dom", "engines to compare")
		seed        = flag.Int64("seed", 1, "XMark generator seed")
		paper       = flag.Bool("paper", false, "use the paper's sizes (10,50,100,200 MB; slow, memory-hungry)")
		jsonPath    = flag.String("json", "", "write per-cell metrics to this JSON file (BENCH_gcx.json)")
		reps        = flag.Int("reps", 1, "runs per cell; the best run is reported (-benchtime Nx equivalent)")
	)
	flag.Parse()

	if *paper {
		*sizesFlag = "10,50,100,200"
	}
	var sizes []int64
	for _, s := range strings.Split(*sizesFlag, ",") {
		var mb int64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &mb); err != nil || mb <= 0 {
			fatal(fmt.Errorf("malformed size %q", s))
		}
		sizes = append(sizes, mb<<20)
	}
	var queries []string
	if *queriesFlag != "" { // empty disables the XML cells (make bench-json)
		queries = strings.Split(*queriesFlag, ",")
	}
	engines := strings.Split(*enginesFlag, ",")
	engineOf := make([]gcx.Engine, len(engines))
	for i, name := range engines {
		engines[i] = strings.TrimSpace(name)
		e, err := gcx.ParseEngine(engines[i])
		if err != nil {
			fatal(err)
		}
		engineOf[i] = e
	}
	if *reps < 1 {
		*reps = 1
	}

	fmt.Printf("%-8s %-7s", "Query", "Size")
	for _, e := range engines {
		fmt.Printf(" %22s", e)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 16+23*len(engines)))

	var out benchFile
	out.Note = "generated by cmd/gcxbench; regenerate with `make bench` (or `go generate ./...`)"

	for _, qid := range queries {
		qid = strings.TrimSpace(qid)
		entry, ok := xmark.Queries[qid]
		if !ok {
			fatal(fmt.Errorf("unknown query %q", qid))
		}
		q, err := gcx.Compile(entry.Text)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", qid, err))
		}
		for _, size := range sizes {
			doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: size, Seed: *seed})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-8s %-7s", qid, sizeparse.Format(size))
			for i, engName := range engines {
				opts := gcx.Options{Engine: engineOf[i], EnableAggregation: entry.UsesAggregation}
				cell, err := measure(len(doc), *reps, func() (*gcx.Result, error) {
					_, res, err := q.ExecuteString(doc, opts)
					return res, err
				})
				if err != nil {
					fmt.Printf(" %22s", "-")
					continue
				}
				cell.Query, cell.SizeBytes, cell.Engine = qid, size, engName
				cell.InputPath = "bytes" // ExecuteString rides the []byte fast path
				cell.GoBench = fmt.Sprintf("Benchmark%s/%s/%s 1 %d ns/op %.2f MB/s %d allocs/op",
					"Gcxbench", qid, sizeparse.Format(size)+"/"+engName, cell.NsPerOp, cell.MBPerS, cell.AllocsPerOp)
				out.Entries = append(out.Entries, cell)
				res := cell
				fmt.Printf(" %10s /%10s", time.Duration(res.NsPerOp).Round(time.Duration(res.NsPerOp/100+1)), sizeparse.Format(res.PeakBytes))
				if engName == "gcx" {
					// Paired io.Reader cell: the same query streamed
					// through the refilling cursor, so the []byte
					// fast-path gain is visible per query.
					if rcell, err := measure(len(doc), *reps, func() (*gcx.Result, error) {
						return q.Execute(strings.NewReader(doc), io.Discard, opts)
					}); err == nil {
						rcell.Query, rcell.SizeBytes, rcell.Engine = qid, size, engName
						rcell.InputPath = "reader"
						rcell.GoBench = fmt.Sprintf("Benchmark%s/%s/%s 1 %d ns/op %.2f MB/s %d allocs/op",
							"Gcxbench", qid, sizeparse.Format(size)+"/"+engName+"/reader", rcell.NsPerOp, rcell.MBPerS, rcell.AllocsPerOp)
						out.Entries = append(out.Entries, rcell)
					}
				}
			}
			fmt.Println()
			runtime.GC()
		}
	}
	// NDJSON cells (DESIGN.md §8): the same engines over the xmark bid
	// log, one JSON record per line, with the JSON front end.
	if *ndjsonFlag != "" {
		for _, qid := range strings.Split(*ndjsonFlag, ",") {
			qid = strings.TrimSpace(qid)
			entry, ok := xmark.NDJSONQueries[qid]
			if !ok {
				fatal(fmt.Errorf("unknown NDJSON query %q", qid))
			}
			q, err := gcx.Compile(entry.Text)
			if err != nil {
				fatal(fmt.Errorf("%s: %v", qid, err))
			}
			for _, size := range sizes {
				doc, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: size, Seed: *seed})
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%-8s %-7s", qid, sizeparse.Format(size))
				for i, engName := range engines {
					opts := gcx.Options{Engine: engineOf[i], EnableAggregation: entry.UsesAggregation, Format: gcx.FormatNDJSON}
					cell, err := measure(len(doc), *reps, func() (*gcx.Result, error) {
						_, res, err := q.ExecuteString(doc, opts)
						return res, err
					})
					if err != nil {
						fmt.Printf(" %22s", "-")
						continue
					}
					cell.Query, cell.SizeBytes, cell.Engine = qid, size, engName
					cell.Format = "ndjson"
					cell.InputPath = "bytes"
					cell.GoBench = fmt.Sprintf("Benchmark%s/%s/%s 1 %d ns/op %.2f MB/s %d allocs/op",
						"Gcxbench", qid, sizeparse.Format(size)+"/"+engName, cell.NsPerOp, cell.MBPerS, cell.AllocsPerOp)
					out.Entries = append(out.Entries, cell)
					res := cell
					fmt.Printf(" %10s /%10s", time.Duration(res.NsPerOp).Round(time.Duration(res.NsPerOp/100+1)), sizeparse.Format(res.PeakBytes))
					if engName == "gcx" {
						if rcell, err := measure(len(doc), *reps, func() (*gcx.Result, error) {
							return q.Execute(strings.NewReader(doc), io.Discard, opts)
						}); err == nil {
							rcell.Query, rcell.SizeBytes, rcell.Engine = qid, size, engName
							rcell.Format = "ndjson"
							rcell.InputPath = "reader"
							rcell.GoBench = fmt.Sprintf("Benchmark%s/%s/%s 1 %d ns/op %.2f MB/s %d allocs/op",
								"Gcxbench", qid, sizeparse.Format(size)+"/"+engName+"/reader", rcell.NsPerOp, rcell.MBPerS, rcell.AllocsPerOp)
							out.Entries = append(out.Entries, rcell)
						}
					}
				}
				fmt.Println()
				runtime.GC()
			}
		}
	}

	// Raw substrate cells (DESIGN.md §12): byte-scanning throughput with
	// no engine on top — SkipSubtree raw-scanning the whole document and
	// the sharding splitter cutting it, each on both input paths. These
	// cells pin the floor the scanning machinery delivers before any
	// engine work happens on top of it.
	for _, size := range sizes {
		doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: size, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		for _, cell := range rawCells(doc, size, *reps) {
			fmt.Printf("%-8s %-7s %-6s %39.1f MB/s\n", cell.Query, sizeparse.Format(size), cell.InputPath, cell.MBPerS)
			out.Entries = append(out.Entries, cell)
		}
		runtime.GC()
	}

	fmt.Println()
	fmt.Println("cells: evaluation time / buffered-memory high watermark (estimated)")
	fmt.Println("note:  the paper's FluXQuery column corresponds to the projection engine;")
	fmt.Println("       FluXQuery could not run Q6 (descendant axis) — marked n/a in the paper.")

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d cells to %s\n", len(out.Entries), *jsonPath)
	}
}

// rawCells measures the tokenizer substrate alone over the document:
// whole-document SkipSubtree (raw scan to the root's close tag) and a
// full splitter pass, on the []byte and io.Reader input paths.
func rawCells(doc string, size int64, reps int) []benchEntry {
	data := []byte(doc)
	path := []xmltok.SplitStep{{Name: "site"}, {Name: "people"}, {Name: "person"}}
	skipAll := func(tok *xmltok.Tokenizer) error {
		defer tok.Release()
		for {
			t, err := tok.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if t.Kind == xmltok.StartElement {
				if err := tok.SkipSubtree(); err != nil {
					return err
				}
			}
		}
	}
	splitAll := func(sp *xmltok.Splitter) error {
		for {
			if _, err := sp.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	kinds := []struct {
		query, inputPath string
		run              func() error
	}{
		{"RawSkipSubtree", "bytes", func() error { return skipAll(xmltok.NewTokenizerBytes(data)) }},
		{"RawSkipSubtree", "reader", func() error { return skipAll(xmltok.NewTokenizer(strings.NewReader(doc))) }},
		{"SplitScan", "bytes", func() error { return splitAll(xmltok.NewSplitterBytes(data, path)) }},
		{"SplitScan", "reader", func() error { return splitAll(xmltok.NewSplitter(strings.NewReader(doc), path)) }},
	}
	var cells []benchEntry
	for _, k := range kinds {
		cell, err := measure(len(doc), reps, func() (*gcx.Result, error) { return nil, k.run() })
		if err != nil {
			continue
		}
		cell.Query, cell.SizeBytes, cell.Engine, cell.InputPath = k.query, size, "raw", k.inputPath
		cell.GoBench = fmt.Sprintf("Benchmark%s/%s/%s 1 %d ns/op %.2f MB/s %d allocs/op",
			"Gcxbench", k.query, sizeparse.Format(size)+"/"+k.inputPath, cell.NsPerOp, cell.MBPerS, cell.AllocsPerOp)
		cells = append(cells, cell)
	}
	return cells
}

// measure runs one cell reps times and keeps the fastest run. run
// returns the engine result, or nil for substrate cells that only scan.
func measure(inputLen int, reps int, run func() (*gcx.Result, error)) (benchEntry, error) {
	var best benchEntry
	for i := 0; i < reps; i++ {
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		res, err := run()
		elapsed := time.Since(start)
		if err != nil {
			return benchEntry{}, err
		}
		runtime.ReadMemStats(&msAfter)
		cell := benchEntry{
			NsPerOp:     elapsed.Nanoseconds(),
			MBPerS:      float64(inputLen) / (1 << 20) / elapsed.Seconds(),
			AllocsPerOp: int64(msAfter.Mallocs - msBefore.Mallocs),
		}
		if res != nil {
			cell.BytesSkipped = res.BytesSkipped
			cell.TagsSkipped = res.TagsSkipped
			cell.PeakNodes = res.PeakBufferedNodes
			cell.PeakBytes = res.PeakBufferedBytes
			cell.OutputBytes = res.OutputBytes
		}
		if i == 0 || cell.NsPerOp < best.NsPerOp {
			best = cell
		}
	}
	return best, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcxbench:", err)
	os.Exit(1)
}
