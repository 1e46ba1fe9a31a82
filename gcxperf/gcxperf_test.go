package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// small shrinks the documents 64-fold (16 MiB to 256 KiB) and the
// windows to a fifth of a second, so the whole package tests in seconds.
var small = config{Seed: 1, Window: 200 * time.Millisecond, DocDiv: 64}

// TestSpecMatchesJSON: BENCHMARK.json and the tables in spec.go say the
// same thing, name for name, and every name fits the contract.
func TestSpecMatchesJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"gcxperf"}) || b.RunSeconds != defaultSeconds {
		t.Errorf("paths %v, run_seconds %d; want [gcxperf], %d", b.Paths, b.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their reasons differ)", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: reason is not one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range want {
			check(kind, m.Name)
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != m.Bound || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match spec.go's %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestRunEmitsEveryMetric: the end-to-end pass completes every workload
// with no failed operation and a non-zero value for every end-to-end
// metric; setting the same seed up again gives the same counts, another
// seed another input.
func TestRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, small)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted < 3 {
			t.Errorf("%s: %d failed of %d attempted: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}
		again, err := setUp(w, small)
		if err != nil {
			t.Fatal(err)
		}
		if got := counts(again, opResult{}); again.sha != res.InputSHA256 || !subset(got, res.Counts) {
			t.Errorf("%s: same seed, different input or counts:\n%v\n%v", w.Name, got, res.Counts)
		}
		again.close()
		other := small
		other.Seed = 2
		in, err := setUp(w, other)
		if err != nil {
			t.Fatal(err)
		}
		if in.sha == res.InputSHA256 {
			t.Errorf("%s: seeds 1 and 2 generate the same input", w.Name)
		}
		in.close()
	}
}

func subset(part, whole map[string]int64) bool {
	for k, v := range part {
		if whole[k] != v {
			return false
		}
	}
	return len(part) > 0
}

// TestTraceEmitsEveryMetric: the traced pass gives every per-layer
// metric on every workload; spans nest; and on the workloads whose
// phases do not overlap the self times of an operation's spans sum to
// its wall time.
func TestTraceEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		res, err := traceWorkload(w, small)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d failed: %v", w.Name, res.Failed, res.Failures)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if v, ok := res.Metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a number", w.Name, m.Name, v)
			}
		}
		byID := map[int]span{}
		for _, s := range res.Spans {
			byID[s.ID] = s
		}
		self := selfTimes(res.Spans)
		wall, sum := map[int]int64{}, map[int]int64{}
		for _, s := range res.Spans {
			if s.End == 0 {
				continue // reserved for an operation that failed; none should
			}
			sum[s.Op] += self[s.ID]
			if s.Parent == 0 {
				wall[s.Op] = s.End - s.Start
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || p.Op != s.Op || s.Start < p.Start || !s.Derived && s.End > p.End {
				t.Fatalf("%s: span %+v does not nest in its parent %+v", w.Name, s, p)
			}
		}
		if len(wall) == 0 {
			t.Fatalf("%s: no operation was traced", w.Name)
		}
		if w.Shards > 1 {
			continue // worker phases are summed over workers and may exceed the wall time
		}
		for op, d := range wall {
			if diff := math.Abs(float64(sum[op]-d)) / float64(d); diff > 0.02 {
				t.Errorf("%s: operation %d: self times sum to %d ns, wall time is %d ns", w.Name, op, sum[op], d)
			}
		}
	}
}

func TestStatistics(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of three = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v", m)
	}
	// The expected values are statistics.quantiles(v, n=4) in Python.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	// Ten operations, nine of them disturbed: the fast tenth is the one
	// that was not.
	if got := p10([]float64{70, 71, 69, 40, 72, 70, 68, 71, 70, 69}); got != 40 {
		t.Errorf("p10 = %v, want 40", got)
	}
	// Twenty completions one second apart except two 0.1 s apart: the
	// best stretch of two is those, at 10 operations per second.
	ends := []float64{}
	for i := range 20 {
		ends = append(ends, float64(i))
	}
	ends[10], ends[11] = 9.1, 9.2 // three completions within 0.2 s
	if got := bestStretchRate(ends, 20); math.Abs(got-10) > 1e-9 {
		t.Errorf("best stretch rate = %v, want 10", got)
	}
	if got := bestStretchRate([]float64{1, 2, 3}, 4); got != 1 {
		t.Errorf("best stretch rate of three operations = %v, want 1", got)
	}
	v := make([]float64, 199)
	if _, ok := p95(v); ok {
		t.Error("p95 reported from 199 samples")
	}
	v = make([]float64, 200)
	for i := range v {
		v[i] = float64(200 - i)
	}
	if got, ok := p95(v); !ok || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, ok)
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes([]span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Start: 20, End: 45},
	})
	want := map[int]int64{1: 50, 2: 20, 3: 5, 4: 30, 5: 25}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestVerdict(t *testing.T) {
	up := metric{Name: "throughput_mbps", Better: "higher", Bound: 0.10}
	down := metric{Name: "latency_p10_ms", Better: "lower", Bound: 0.10}
	exact := metric{Name: "peak_buffered_nodes", Better: "lower", Bound: 0.001}
	base := []float64{100, 101, 99}
	for _, c := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{up, base, []float64{80, 81, 79}, worse},
		{up, base, []float64{120, 121, 119}, better},
		{up, base, []float64{95, 96, 94}, unchanged},
		{down, base, []float64{120, 121, 119}, worse},
		{down, base, []float64{80, 81, 79}, better},
		{up, []float64{100, 130, 70}, []float64{95, 125, 65}, unresolved}, // spread 60% hides a 5% drop
		{up, []float64{100, 130, 70}, []float64{20, 21, 19}, worse},       // but not an 80% one
		{exact, []float64{15391, 15391}, []float64{15391, 15391}, unchanged},
		{exact, []float64{15391, 15391}, []float64{15500, 15500}, worse},
		{exact, []float64{6, 6}, []float64{5, 5}, better},
	} {
		if got, _, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %v -> %v: verdict %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareGate: compare exits 0 on two equal sets, 1 when a metric is
// worse and 1 when only the error rate rose.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput float64, failed int) string {
		f := resultFile{Workloads: map[string]*workloadRuns{}}
		for _, w := range workloads {
			wr := &workloadRuns{}
			for i := range 3 {
				wr.Runs = append(wr.Runs, &runResult{
					Metrics: map[string]float64{
						"throughput_mbps": throughput + float64(i), "latency_p10_ms": 10, "peak_buffered_nodes": 6,
						"allocs_per_mb": 9000, "setup_s": 0.3,
					},
					Counts:    map[string]int64{"tokens": 7},
					Attempted: 100, Failed: failed,
				})
			}
			f.Workloads[w.Name] = wr
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 200, 0)
	for _, c := range []struct {
		change string
		code   int
		say    string
	}{
		{write("same.json", 200, 0), 0, unchanged},
		{write("slow.json", 120, 0), 1, worse},
		{write("fast.json", 280, 0), 0, better},
		{write("failing.json", 200, 1), 1, "more operations failed"},
	} {
		var out, errOut strings.Builder
		if code := run([]string{"compare", base, c.change}, &out, &errOut); code != c.code || !strings.Contains(out.String(), c.say) {
			t.Errorf("compare %s: exit %d, want %d and %q in:\n%s%s", filepath.Base(c.change), code, c.code, c.say, out.String(), errOut.String())
		}
	}
}

// TestContractLine: the command BENCHMARK.json names ends its output
// with one JSON object of exactly the contract's keys, and refuses an
// unknown workload without printing one.
func TestContractLine(t *testing.T) {
	// The traced pass writes out/trace-<workload>.json beside itself.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for trace, spec := range map[string][]metric{"0": endToEnd, "1": perLayer} {
		var out, errOut strings.Builder
		if code := run([]string{"--workload", "serve-small", "--seed", "3", "--seconds", "0.4", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		var o outcome
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil || len(got) != 4 {
			t.Fatalf("trace %s: last line has keys %v (%v)", trace, got, err)
		}
		if !o.Correct || o.Attempted < 1 || o.Failed != 0 || len(o.Metrics) != len(spec) {
			t.Errorf("trace %s: outcome %+v", trace, o)
		}
		for _, m := range spec {
			if o.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("trace %s: metric %s missing or in the wrong unit", trace, m.Name)
			}
		}
	}
	var out, errOut strings.Builder
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}
