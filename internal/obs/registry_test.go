package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExposition is the format golden test: a registry with every
// metric kind renders exactly the expected Prometheus text exposition,
// families in registration order and labeled series sorted.
func TestExposition(t *testing.T) {
	r := New()
	c := r.Counter("gcx_requests_total", "Total requests.").Key("requests")
	c.Add(41)
	c.Inc()
	g := r.Gauge("gcx_inflight_requests", "In-flight requests.")
	g.Set(3)
	g.Add(-1)
	r.GaugeFunc("gcx_cache_entries", "Cached queries.", func() int64 { return 7 })
	r.CounterFunc("gcx_cache_hits_total", "Cache hits.", func() int64 { return 9 })
	v := r.HistogramVec("gcx_response_size_bytes", "Response sizes.", []float64{10, 100}, "engine", "outcome")
	h := v.With("gcx", "ok")
	h.Observe(5)
	h.Observe(50)
	h.Observe(50)
	h.Observe(1000)
	v.With("dom", "error").Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gcx_requests_total Total requests.
# TYPE gcx_requests_total counter
gcx_requests_total 42
# HELP gcx_inflight_requests In-flight requests.
# TYPE gcx_inflight_requests gauge
gcx_inflight_requests 2
# HELP gcx_cache_entries Cached queries.
# TYPE gcx_cache_entries gauge
gcx_cache_entries 7
# HELP gcx_cache_hits_total Cache hits.
# TYPE gcx_cache_hits_total counter
gcx_cache_hits_total 9
# HELP gcx_response_size_bytes Response sizes.
# TYPE gcx_response_size_bytes histogram
gcx_response_size_bytes_bucket{engine="dom",outcome="error",le="10"} 0
gcx_response_size_bytes_bucket{engine="dom",outcome="error",le="100"} 1
gcx_response_size_bytes_bucket{engine="dom",outcome="error",le="+Inf"} 1
gcx_response_size_bytes_sum{engine="dom",outcome="error"} 100
gcx_response_size_bytes_count{engine="dom",outcome="error"} 1
gcx_response_size_bytes_bucket{engine="gcx",outcome="ok",le="10"} 1
gcx_response_size_bytes_bucket{engine="gcx",outcome="ok",le="100"} 3
gcx_response_size_bytes_bucket{engine="gcx",outcome="ok",le="+Inf"} 4
gcx_response_size_bytes_sum{engine="gcx",outcome="ok"} 1105
gcx_response_size_bytes_count{engine="gcx",outcome="ok"} 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketBoundaries: le is inclusive — an observation equal
// to a bound lands in that bound's bucket, one infinitesimally above in
// the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.HistogramVec("gcx_test_seconds", "", []float64{1, 2, 4}, "outcome").With("ok")
	for _, v := range []float64{1, 2, 2.0001, 4, 5} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`gcx_test_seconds_bucket{outcome="ok",le="1"} 1`,
		`gcx_test_seconds_bucket{outcome="ok",le="2"} 2`,
		`gcx_test_seconds_bucket{outcome="ok",le="4"} 4`,
		`gcx_test_seconds_bucket{outcome="ok",le="+Inf"} 5`,
		`gcx_test_seconds_count{outcome="ok"} 5`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, b.String())
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 1+2+2.0001+4+5 {
		t.Errorf("Sum = %g", got)
	}
}

// TestLatencyBucketsSorted guards the fixed bucket tables.
func TestLatencyBucketsSorted(t *testing.T) {
	for _, buckets := range [][]float64{LatencyBuckets, SizeBuckets} {
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				t.Fatalf("buckets not ascending at %d: %v", i, buckets)
			}
		}
	}
}

// TestLabelEscaping: backslash, quote and newline in label values are
// escaped per the exposition format.
func TestLabelEscaping(t *testing.T) {
	r := New()
	v := r.HistogramVec("gcx_errors_seconds", "", []float64{1}, "message")
	v.With("a\\b \"quoted\"\nnext").Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `gcx_errors_seconds_count{message="a\\b \"quoted\"\nnext"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("escaping drifted:\n got %s\nwant %s", b.String(), want)
	}
}

// TestSnapshot: only keyed metrics appear, with their current values,
// including callback-backed ones.
func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("gcx_a_total", "").Key("a").Add(5)
	r.Gauge("gcx_b", "").Key("b").Set(-2)
	r.CounterFunc("gcx_c_total", "", func() int64 { return 11 }).Key("c")
	r.Counter("gcx_unkeyed_total", "").Inc()
	got := r.Snapshot()
	if len(got) != 3 || got["a"] != 5 || got["b"] != -2 || got["c"] != 11 {
		t.Errorf("snapshot = %v", got)
	}
}

// TestGaugeMax is the watermark idiom: only larger values stick.
func TestGaugeMax(t *testing.T) {
	r := New()
	g := r.Gauge("gcx_peak", "")
	g.Max(10)
	g.Max(4)
	g.Max(12)
	if g.Value() != 12 {
		t.Errorf("Max watermark = %d, want 12", g.Value())
	}
}

// TestRegistryConcurrent hammers every update path against snapshots
// and expositions; run under -race this is the registry's concurrency
// proof. The final totals also check that no update was lost.
func TestRegistryConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("gcx_hits_total", "").Key("hits")
	g := r.Gauge("gcx_level", "").Key("level")
	h := r.HistogramVec("gcx_lat_seconds", "", LatencyBuckets, "outcome")
	const goroutines = 8
	const rounds = 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				c.Inc()
				g.Add(1)
				g.Max(int64(j))
				h.With([]string{"ok", "error"}[j%2]).Observe(float64(j) * 0.001)
			}
		}(i)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if c.Value() != goroutines*rounds {
		t.Errorf("counter = %d, want %d", c.Value(), goroutines*rounds)
	}
	total := h.With("ok").Count() + h.With("error").Count()
	if total != goroutines*rounds {
		t.Errorf("histogram count = %d, want %d", total, goroutines*rounds)
	}
}

func TestTimerPhases(t *testing.T) {
	var tm Timer
	tm.Add(PhaseStream, 5*time.Millisecond)
	tm.Add(PhaseSetup, time.Millisecond)
	tm.AddNanos(PhaseEval, 100)
	got := tm.Phases()
	if len(got) != 3 || got[0].Phase != "setup" || got[1].Phase != "stream" || got[2].Phase != "eval" {
		t.Fatalf("phases = %+v", got)
	}
	if tm.Sum() != int64(6*time.Millisecond)+100 {
		t.Errorf("Sum = %d", tm.Sum())
	}
	if got[0].Duration() != time.Millisecond {
		t.Errorf("Duration = %s", got[0].Duration())
	}
}

func TestSumPhases(t *testing.T) {
	a := []PhaseTime{{Phase: "stream", Nanos: 10}, {Phase: "eval", Nanos: 1}}
	b := []PhaseTime{{Phase: "stream", Nanos: 5}, {Phase: "merge", Nanos: 2}}
	got := SumPhases(a, b)
	want := []PhaseTime{{Phase: "stream", Nanos: 15}, {Phase: "merge", Nanos: 2}, {Phase: "eval", Nanos: 1}}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("phase %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRegistrationPanics: malformed registrations are programmer
// errors caught at construction.
func TestRegistrationPanics(t *testing.T) {
	for name, fn := range map[string]func(r *Registry){
		"invalid name":    func(r *Registry) { r.Counter("0bad", "") },
		"duplicate":       func(r *Registry) { r.Counter("gcx_x_total", ""); r.Gauge("gcx_x_total", "") },
		"empty buckets":   func(r *Registry) { r.HistogramVec("gcx_h", "", nil) },
		"unsorted":        func(r *Registry) { r.HistogramVec("gcx_h", "", []float64{2, 1}) },
		"label arity":     func(r *Registry) { r.HistogramVec("gcx_hv", "", []float64{1}, "a").With("x", "y") },
		"histogram arity": func(r *Registry) { r.HistogramVec("gcx_hv", "", []float64{1}, "a").With() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(New())
		})
	}
}
