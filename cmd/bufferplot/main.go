// Command bufferplot regenerates the buffer plots of the paper's
// Figures 3 and 4: for each input token delivered it emits the number
// of buffered XML nodes, as "token<TAB>nodes" lines ready for gnuplot.
// The plot is the run the engine serves: recording only observes, so
// dead subtrees are skipped (their tokens are not delivered and have
// no line) and decided branches pruned, as in every run.
//
//	bufferplot -fig 3b          # 9×article + 1×book (Fig. 3(b))
//	bufferplot -fig 3c          # 9×book + 1×article (Fig. 3(c))
//	bufferplot -fig 4a -size 10MB   # XMark Q6 (Fig. 4(a))
//	bufferplot -fig 4b -size 10MB   # XMark Q8 (Fig. 4(b))
//
// Figure 3 samples every token, Figure 4 every 200th. A plot of any
// other query and document is `gcx -plot N`, which writes the same
// series to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gcx"
	"gcx/internal/plotsvg"
	"gcx/internal/sizeparse"
	"gcx/internal/xmark"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command. It returns the process exit
// code: 0 on success, 1 on runtime errors, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bufferplot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig    = fs.String("fig", "", "paper figure to regenerate: 3b, 3c, 4a or 4b")
		size   = fs.String("size", "10MB", "XMark document size for figures 4a/4b")
		seed   = fs.Int64("seed", 1, "XMark generator seed")
		svgOut = fs.String("svg", "", "also render the plot as an SVG image to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "bufferplot:", msg)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bufferplot:", err)
		return 1
	}

	var querySrc, doc string
	every := int64(1)
	switch *fig {
	case "3b":
		querySrc, doc = xmark.PaperQuery, xmark.BibDocument(xmark.Fig3bKinds())
	case "3c":
		querySrc, doc = xmark.PaperQuery, xmark.BibDocument(xmark.Fig3cKinds())
	case "4a", "4b":
		bytes, err := sizeparse.Parse(*size)
		if err != nil {
			return fail(err)
		}
		generated, _, err := xmark.GenerateString(xmark.Config{TargetBytes: bytes, Seed: *seed})
		if err != nil {
			return fail(err)
		}
		doc = generated
		if *fig == "4a" {
			querySrc = xmark.Queries["Q6"].Text
		} else {
			querySrc = xmark.Queries["Q8"].Text
		}
		every = 200
	case "":
		return usage("need -fig (a plot of another query is gcx -plot)")
	default:
		return usage(fmt.Sprintf("unknown figure %q (want 3b, 3c, 4a or 4b)", *fig))
	}

	q, err := gcx.Compile(querySrc)
	if err != nil {
		return fail(err)
	}
	_, res, err := q.ExecuteString(doc, gcx.Options{RecordEvery: every})
	if err != nil {
		return fail(err)
	}
	for _, p := range res.Series {
		fmt.Fprintf(stdout, "%d\t%d\n", p.Token, p.Nodes)
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			return fail(err)
		}
		err = plotsvg.Render(f, plotsvg.Config{
			Title:  "Figure " + *fig,
			XLabel: "number of tokens delivered",
			YLabel: "number of XML nodes buffered",
		}, plotsvg.Series{Points: res.Series})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stderr, "bufferplot: %d tokens, peak %d nodes (%0.1f KB est.), final %d nodes\n",
		res.TokensProcessed, res.PeakBufferedNodes,
		float64(res.PeakBufferedBytes)/1024, res.FinalBufferedNodes)
	return 0
}
