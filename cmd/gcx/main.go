// Command gcx runs an XQuery over an XML or JSON/NDJSON document or
// stream (DESIGN.md §8: JSON objects map to elements, arrays to
// repeated siblings, under a virtual /root/record document shape).
//
// Examples:
//
//	gcx -q '<out>{ for $b in /bib/book return $b/title }</out>' -i bib.xml
//	gcx -f query.xq -i big.xml -o result.xml -stats
//	gcx -f query.xq -explain            # analyzer report: roles, rewritten query, streamability
//	gcx -f query.xq -explain-json       # the same report as JSON
//	gcx -f query.xq -i big.xml -max-nodes 100000    # abort instead of buffering past the budget
//	gcx -f query.xq -strict             # refuse statically unbounded queries
//	gcx -f join.xq -i doc.xml -engine dom   # full-buffering baseline
//	gcx -f query.xq -i big.xml -shards 8    # sharded data-parallel run
//	gcx -q 'for $r in /root/record return $r/name' -i events.ndjson
//	gcx -f query.xq -format ndjson -shards 8 < events.ndjson
//
// The run is cancellable: Ctrl-C (SIGINT/SIGTERM) or an elapsed
// -timeout aborts the evaluation within one input token.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"gcx"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of the command. It returns the process exit
// code: 0 on success, 1 on runtime errors, 2 on usage errors.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcx", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryText   = fs.String("q", "", "query text")
		queryFile   = fs.String("f", "", "file containing the query")
		inputFile   = fs.String("i", "", "input XML document (default stdin)")
		outputFile  = fs.String("o", "", "output file (default stdout)")
		engineName  = fs.String("engine", "gcx", "engine: gcx, projection (no GC) or dom (full buffering)")
		formatName  = fs.String("format", "auto", "input format: auto, xml, json or ndjson (auto uses the -i extension, then sniffs the first byte)")
		mode        = fs.String("mode", "deferred", "sign-off mode: deferred or eager")
		agg         = fs.Bool("agg", false, "enable the aggregation extension (count/sum/min/max/avg)")
		explain     = fs.Bool("explain", false, "print the analyzer report (roles, rewritten query, streamability, bound), then exit")
		explainJSON = fs.Bool("explain-json", false, "like -explain, but print the structured report as JSON")
		maxNodes    = fs.Int64("max-nodes", 0, "node budget: abort with an error if the buffer would exceed this many nodes (0 = unlimited; per worker under -shards)")
		strict      = fs.Bool("strict", false, "reject statically unbounded queries at compile time")
		showStats   = fs.Bool("stats", false, "print run statistics to stderr")
		showTrace   = fs.Bool("trace", false, "print the per-phase execution trace to stderr")
		plotEvery   = fs.Int64("plot", 0, "emit a buffer plot sample to stderr every N tokens")
		shards      = fs.Int("shards", 1, "parallel engine instances for partitionable queries (0/1 = sequential)")
		useMmap     = fs.Bool("mmap", false, "memory-map the -i file and run the zero-copy byte path (falls back to reading the file where mmap is unavailable)")
		noJoin      = fs.Bool("no-join", false, "disable the streaming hash join operator (nested-loop baseline for detected joins)")
		timeout     = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	src := *queryText
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			return fail(stderr, err)
		}
		src = string(data)
	}
	if src == "" {
		fmt.Fprintln(stderr, "gcx: no query given (use -q or -f)")
		fs.Usage()
		return 2
	}

	q, err := gcx.CompileWithOptions(src, gcx.CompileOptions{StrictStreaming: *strict})
	if err != nil {
		return fail(stderr, err)
	}
	if *explainJSON {
		raw, err := json.MarshalIndent(q.Report(), "", "  ")
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "%s\n", raw)
		return 0
	}
	if *explain {
		fmt.Fprint(stdout, q.Explain())
		return 0
	}

	if *useMmap && *inputFile == "" {
		fmt.Fprintln(stderr, "gcx: -mmap requires an input file (-i)")
		return 2
	}
	input := stdin
	if *inputFile != "" && !*useMmap {
		f, err := os.Open(*inputFile)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		input = f
	}
	output := stdout
	toStdout := true
	if *outputFile != "" {
		f, err := os.Create(*outputFile)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		output = f
		toStdout = false
	}

	format, err := gcx.ParseFormat(*formatName)
	if err != nil {
		return fail(stderr, err)
	}
	if format == gcx.FormatAuto && *inputFile != "" {
		format = gcx.DetectPathFormat(*inputFile)
	}

	opts := gcx.Options{EnableAggregation: *agg, RecordEvery: *plotEvery, Shards: *shards, Format: format, MaxBufferedNodes: *maxNodes, DisableJoin: *noJoin, EnableTrace: *showTrace}
	if opts.Engine, err = gcx.ParseEngine(*engineName); err != nil {
		return fail(stderr, err)
	}
	switch *mode {
	case "deferred":
	case "eager":
		opts.SignOffMode = gcx.SignOffEager
	default:
		return fail(stderr, fmt.Errorf("unknown sign-off mode %q", *mode))
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res *gcx.Result
	if *useMmap {
		data, unmap, merr := mapFile(*inputFile)
		if merr != nil {
			return fail(stderr, merr)
		}
		res, err = q.ExecuteBytesContext(ctx, data, output, opts)
		unmap()
	} else {
		res, err = q.ExecuteContext(ctx, input, output, opts)
	}
	if err == nil && toStdout {
		fmt.Fprintln(stdout)
	}
	// A run that fails with a record (a node-budget breach) still
	// reports how far it got: statistics first, then the error.
	if res != nil {
		for _, p := range res.Series {
			fmt.Fprintf(stderr, "%d\t%d\n", p.Token, p.Nodes)
		}
		if *showTrace {
			fmt.Fprint(stderr, "trace:")
			for _, p := range res.Trace {
				fmt.Fprintf(stderr, " %s=%s", p.Phase, p.Duration())
			}
			fmt.Fprintf(stderr, " wall=%s\n", res.Duration)
		}
		if *showStats {
			fmt.Fprintln(stderr, res)
		}
	}
	if err != nil {
		return fail(stderr, err)
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "gcx:", err)
	return 1
}
