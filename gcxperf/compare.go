package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	better     = "better"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved" // the runs of one side spread wider than the bound, so a change of that size cannot be told from noise
)

// verdict compares the runs of a metric on two sides. The change is
// counted in the metric's bad direction as a share of a's median; the
// spread is the wider of the two sides' interquartile distances as a
// share of their medians. A change must clear both the bound and the
// spread to be called; a change it cannot call, on sides noisier than
// the bound, is unresolved rather than unchanged.
func verdict(m metric, a, b []float64) (v string, ratio, spread float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return unchanged, 1, 0
		}
		return unresolved, 0, 0
	}
	ratio = mb / ma
	worsening := ratio - 1
	if m.Better == "higher" {
		worsening = 1 - ratio
	}
	for _, side := range [][]float64{a, b} {
		q1, q3 := quartiles(side)
		if med := median(side); med != 0 {
			spread = max(spread, (q3-q1)/med)
		}
	}
	limit := max(m.Bound, spread)
	switch {
	case worsening > limit:
		return worse, ratio, spread
	case -worsening > limit:
		return better, ratio, spread
	case spread > m.Bound:
		return unresolved, ratio, spread
	}
	return unchanged, ratio, spread
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (wr *workloadRuns) values(name string) []float64 {
	v := make([]float64, 0, len(wr.Runs))
	for _, r := range wr.Runs {
		v = append(v, r.Metrics[name])
	}
	return v
}

func (wr *workloadRuns) errorRate() float64 {
	var attempted, failed int
	for _, r := range wr.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// cmdCompare is the gate: B (the change) against A (the base).
func cmdCompare(args []string, stdout, stderr io.Writer) error {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: gcxperf compare A.json B.json   (A is the base; both written by `gcxperf run`)")
		return exitCode(2)
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "base   %s: commit %s, seed %d, %gs window, GOMAXPROCS %d, %s\n", args[0],
		a.Provenance.Commit, a.Provenance.Seed, a.Provenance.WindowS, a.Provenance.GOMAXPROCS, a.Provenance.GoVersion)
	fmt.Fprintf(stdout, "change %s: commit %s, seed %d, %gs window, GOMAXPROCS %d, %s\n", args[1],
		b.Provenance.Commit, b.Provenance.Seed, b.Provenance.WindowS, b.Provenance.GOMAXPROCS, b.Provenance.GoVersion)
	fmt.Fprintf(stdout, "%-14s %-20s %34s %34s %16s  %s\n", "workload", "metric",
		"base median [q1, q3]", "change median [q1, q3]", "change/base", "verdict")
	bad := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			fmt.Fprintf(stdout, "%-14s not measured on both sides\n", w.Name)
			continue
		}
		for _, m := range endToEnd {
			va, vb := wa.values(m.Name), wb.values(m.Name)
			v, ratio, spread := verdict(m, va, vb)
			if v == worse {
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-20s %34s %34s %9.4f of base  %s (spread %.1f%%, bound %.1f%%)\n", w.Name, m.Name,
				summary(va), summary(vb), ratio, v, 100*spread, 100*m.Bound)
		}
		if ea, eb := wa.errorRate(), wb.errorRate(); eb > ea {
			bad++
			fmt.Fprintf(stdout, "%-14s %-20s %34.6f %34.6f  worse: more operations failed\n", w.Name, "error_rate", ea, eb)
		}
		if d := countDiff(wa.Runs[0].Counts, wb.Runs[0].Counts); d != "" {
			fmt.Fprintf(stdout, "%-14s counts differ: %s\n", w.Name, d)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regressions\n", bad)
		return exitCode(1)
	}
	return nil
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(v), q1, q3, len(v))
}

// countDiff names the program's counters that differ between two runs;
// on one seed and one commit none may.
func countDiff(a, b map[string]int64) string {
	var out string
	for _, k := range sortedKeys(a) {
		if a[k] != b[k] {
			out += fmt.Sprintf(" %s %d -> %d;", k, a[k], b[k])
		}
	}
	return out
}
