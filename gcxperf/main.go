// Command gcxperf is the repository's benchmark (BENCHMARK.json): seven
// named workloads, end-to-end metrics measured with tracing off, a
// separate traced pass that gives per-layer metrics and spans, and a
// compare gate. README.md in this directory defines every name.
//
//	gcxperf --workload W --seed N --seconds S --trace 0|1
//	    one workload, one pass; the last line of standard output is the
//	    result as one JSON object (the contract in BENCHMARK.json)
//	gcxperf run     [-seed N] [-seconds S] [-n R] [-out results.json]
//	    every workload, R times; prints every end-to-end metric by name
//	gcxperf trace   [-seed N] [-seconds S] [-out layers.json] [-spans trace.json]
//	    every workload's per-layer metrics, and the spans behind them
//	gcxperf compare A.json B.json
//	    medians, quartiles, ratio and verdict per workload and metric;
//	    exits 1 on any `worse` or any higher error rate
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = cmdRun(args[1:], stdout, stderr)
	case len(args) > 0 && args[0] == "trace":
		err = cmdTrace(args[1:], stdout, stderr)
	case len(args) > 0 && args[0] == "compare":
		err = cmdCompare(args[1:], stdout, stderr)
	default:
		err = cmdContract(args, stdout, stderr)
	}
	var code exitCode
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 2
	case errors.As(err, &code):
		return int(code)
	}
	fmt.Fprintln(stderr, "gcxperf:", err)
	return 1
}

// exitCode is an error that only carries the process's exit status; its
// cause has been printed already.
type exitCode int

func (e exitCode) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

// defaultSeconds is the timed window of `run` and `trace`, and
// run_seconds in BENCHMARK.json.
const defaultSeconds = 8

func configFor(seed int64, seconds float64) config {
	window := time.Duration(seconds * float64(time.Second))
	return config{Seed: seed, Window: window, DocDiv: 1}
}

// outcome is the last line of a contract pass.
type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func withUnits(spec []metric, values map[string]float64) (map[string]valueUnit, error) {
	out := make(map[string]valueUnit, len(spec))
	for _, m := range spec {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = valueUnit{v, m.Unit}
	}
	return out, nil
}

// cmdContract runs one workload as BENCHMARK.json's command does.
func cmdContract(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gcxperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "generator seed")
	seconds := fs.Float64("seconds", defaultSeconds, "timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintf(stderr, "gcxperf: want --workload <name> --seed <n> --seconds <s> --trace <0|1>, or run | trace | compare; workloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-14s %s\n", w.Name, w.Why)
		}
		return exitCode(2)
	}
	cfg := configFor(*seed, *seconds)
	var out outcome
	var failures []string
	if *trace == 0 {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		out.Attempted, out.Failed, failures = res.Attempted, res.Failed, res.Failures
		if out.Metrics, err = withUnits(endToEnd, res.Metrics); err != nil {
			return err
		}
		printRun(stdout, w.Name, res)
	} else {
		res, err := traceWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		out.Attempted, out.Failed, failures = res.Attempted, res.Failed, res.Failures
		if out.Metrics, err = withUnits(perLayer, res.Metrics); err != nil {
			return err
		}
		printLayers(stdout, w.Name, res)
		path := filepath.Join("out", "trace-"+w.Name+".json")
		if err := writeJSON(path, map[string][]span{w.Name: res.Spans}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(res.Spans), path)
	}
	reportFailures(stderr, w.Name, failures)
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// provenance says where and on what a result file was measured.
type provenance struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	When       string  `json:"when"`
}

func stamp(cfg config) provenance {
	return provenance{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
		Seed:       cfg.Seed,
		WindowS:    cfg.Window.Seconds(),
		WarmupS:    cfg.Window.Seconds() / 4,
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the revision the binary was built from, else the one the
// working directory has checked out, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// resultFile is what `run` writes and `compare` reads: per workload,
// one runResult per repetition. A skipped workload has a reason and no
// runs.
type resultFile struct {
	Provenance provenance               `json:"provenance"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Skipped string       `json:"skipped,omitempty"`
	Runs    []*runResult `json:"runs,omitempty"`
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gcxperf run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "generator seed")
	seconds := fs.Float64("seconds", defaultSeconds, "timed window per workload in seconds")
	reps := fs.Int("n", 1, "repetitions of the whole set; compare takes medians over them")
	outPath := fs.String("out", filepath.Join("out", "results.json"), "result file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := configFor(*seed, *seconds)
	file := resultFile{Provenance: stamp(cfg), Workloads: map[string]*workloadRuns{}}
	failed := 0
	for rep := range *reps {
		for _, w := range workloads {
			wr := file.Workloads[w.Name]
			if wr == nil {
				wr = &workloadRuns{}
				file.Workloads[w.Name] = wr
			}
			res, err := runWorkload(w, cfg)
			if errors.Is(err, errNeedsTwoProcs) {
				wr.Skipped = err.Error()
				if rep == 0 {
					fmt.Fprintf(stdout, "%-14s skipped: %v\n", w.Name, err)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			wr.Runs = append(wr.Runs, res)
			failed += res.Failed
			printRun(stdout, w.Name, res)
			reportFailures(stderr, w.Name, res.Failures)
		}
	}
	if err := writeJSON(*outPath, file); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *outPath)
	if failed > 0 {
		fmt.Fprintf(stderr, "gcxperf: %d operations failed\n", failed)
		return exitCode(1)
	}
	return nil
}

func cmdTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gcxperf trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "generator seed")
	seconds := fs.Float64("seconds", defaultSeconds, "traced and untraced windows per workload, together, in seconds")
	outPath := fs.String("out", filepath.Join("out", "layers.json"), "per-layer metrics file")
	spanPath := fs.String("spans", filepath.Join("out", "trace.json"), "span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := configFor(*seed, *seconds)
	layers := struct {
		Provenance provenance              `json:"provenance"`
		Workloads  map[string]*traceResult `json:"workloads"`
	}{stamp(cfg), map[string]*traceResult{}}
	spans := map[string][]span{}
	failed := 0
	for _, w := range workloads {
		res, err := traceWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		layers.Workloads[w.Name] = res
		spans[w.Name] = res.Spans
		failed += res.Failed
		printLayers(stdout, w.Name, res)
		reportFailures(stderr, w.Name, res.Failures)
	}
	if err := writeJSON(*outPath, layers); err != nil {
		return err
	}
	if err := writeJSON(*spanPath, spans); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s and %s\n", *outPath, *spanPath)
	if failed > 0 {
		return exitCode(1)
	}
	return nil
}

func reportFailures(stderr io.Writer, workload string, failures []string) {
	for _, f := range failures {
		fmt.Fprintf(stderr, "gcxperf: %s: failed operation: %s\n", workload, f)
	}
}

func printRun(w io.Writer, name string, res *runResult) {
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-14s %-22s %14.4f %s\n", name, m.Name, res.Metrics[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "%-14s %-22s %14.4f MiB/s (diagnostic: all of the window)\n", name, "mean_throughput_mbps", res.MeanThroughput)
	fmt.Fprintf(w, "%-14s %-22s %14.4f ms (diagnostic, %d samples)\n", name, "latency_p50_ms", res.LatencyP50Ms, res.Samples)
	if res.LatencyP95Ms > 0 {
		fmt.Fprintf(w, "%-14s %-22s %14.4f ms (diagnostic, %d samples)\n", name, "latency_p95_ms", res.LatencyP95Ms, res.Samples)
	}
	fmt.Fprintf(w, "%-14s %-22s %14.6f (%d failed of %d attempted)\n", name, "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
}

func printLayers(w io.Writer, name string, res *traceResult) {
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-14s %-32s %16.4f %s\n", name, m.Name, res.Metrics[m.Name], m.Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
