// Package obs is gcx's stdlib-only observability subsystem
// (DESIGN.md §11): a small metrics registry — counters, gauges and
// histograms with fixed latency/size buckets, rendered in the
// Prometheus text exposition format — plus the per-phase execution
// timer behind `gcx -trace` and gcxd's X-Gcx-Trace trailer.
//
// The registry is the single source of truth for gcxd's serving
// metrics: GET /metrics renders the Prometheus view, GET /stats the
// legacy JSON view over the same values (Snapshot), so the two cannot
// drift. There is deliberately no dependency on a Prometheus client
// library — the build environment has no module proxy, and the subset
// of the exposition format gcx needs (counter, gauge, histogram,
// escaped labels) fits in a page of code.
//
// Consistency: metric updates take the registry's reader lock and
// Snapshot/WritePrometheus the writer lock, so a snapshot observes no
// update mid-flight — related counters (requests vs bytes_out) cannot
// tear against each other the way independent field-by-field atomic
// reads can. Updates stay concurrent with each other (the reader lock
// is shared, the value mutation itself an atomic op).
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the fixed request-duration histogram bounds in
// seconds: 100µs to 30s, roughly 2.5× per step — wide enough to span a
// cache-hit metadata query and a 200 MB sharded scan on one axis.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// SizeBuckets are the fixed response-size histogram bounds in bytes:
// 256 B to 64 MiB, ×4 per step.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
	256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// metricName is the grammar the repo's obsnames lint pass enforces on
// top of the Prometheus one: gcx_-prefixed snake_case. The registry
// itself only requires Prometheus validity (validName below), so tests
// and future non-gcx embedders stay free.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds named metrics and renders them. The zero value is not
// usable; create with New. Updates, Snapshot and WritePrometheus are
// safe for concurrent use; registration methods panic on invalid or
// duplicate names and must all complete before the registry starts
// serving reads (metrics are registered once, at server construction).
type Registry struct {
	// mu is the snapshot lock: updates hold it shared, Snapshot and
	// WritePrometheus exclusively — see the package comment.
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// family is one metric name: counters and gauges have a single
// anonymous child, histogram families one child per label-value
// combination.
type family struct {
	name, help, typ string
	statsKey        string
	labels          []string
	buckets         []float64
	fn              func() int64 // CounterFunc/GaugeFunc callback
	children        map[string]*child
	order           []*child
}

// child is one time series.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(name, help, typ string, first *child) *family {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	f := &family{name: name, help: help, typ: typ, children: map[string]*child{}}
	if first != nil {
		f.order = append(f.order, first)
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{r: r}
	c.f = r.register(name, help, "counter", &child{counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// collection time — for totals another component already tracks (e.g.
// the query cache's hit/miss counters). fn runs with the registry lock
// held and must not call back into the registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64) *Func {
	f := r.register(name, help, "counter", nil)
	f.fn = fn
	return &Func{f: f}
}

// Gauge registers a value that can go up and down (or a watermark via
// Gauge.Max).
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{r: r}
	g.f = r.register(name, help, "gauge", &child{gauge: g})
	return g
}

// GaugeFunc registers a gauge read from fn at collection time, under
// the same reentrancy rule as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) *Func {
	f := r.register(name, help, "gauge", nil)
	f.fn = fn
	return &Func{f: f}
}

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	checkBuckets(name, buckets)
	f := r.register(name, help, "histogram", nil)
	f.buckets = buckets
	f.labels = labels
	return &HistogramVec{r: r, f: f}
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not sorted ascending", name))
		}
	}
}

// --- scalar metrics ------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct {
	r *Registry
	f *family
	v atomic.Int64
}

// Key sets the metric's key in the legacy /stats JSON snapshot
// (metrics without a key are exposition-only) and returns the counter
// for chained registration.
func (c *Counter) Key(statsKey string) *Counter { c.f.statsKey = statsKey; return c }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by n (n must be ≥ 0 for Prometheus counter semantics).
func (c *Counter) Add(n int64) {
	c.r.mu.RLock()
	c.v.Add(n)
	c.r.mu.RUnlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can move both ways.
type Gauge struct {
	r *Registry
	f *family
	v atomic.Int64
}

// Key sets the /stats snapshot key, as for Counter.Key.
func (g *Gauge) Key(statsKey string) *Gauge { g.f.statsKey = statsKey; return g }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	g.r.mu.RLock()
	g.v.Store(n)
	g.r.mu.RUnlock()
}

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	g.r.mu.RLock()
	g.v.Add(n)
	g.r.mu.RUnlock()
}

// Max raises the gauge to n if n is larger — the lifetime-watermark
// idiom (peak buffered nodes/bytes).
func (g *Gauge) Max(n int64) {
	g.r.mu.RLock()
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			break
		}
	}
	g.r.mu.RUnlock()
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Func is a callback-backed metric (CounterFunc/GaugeFunc).
type Func struct{ f *family }

// Key sets the /stats snapshot key, as for Counter.Key.
func (f *Func) Key(statsKey string) *Func { f.f.statsKey = statsKey; return f }

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	r       *Registry
	buckets []float64
	counts  []atomic.Int64 // one per bucket, +Inf last
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(r *Registry, buckets []float64) *Histogram {
	return &Histogram{r: r, buckets: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.r.mu.RLock()
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.r.mu.RUnlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// --- labeled vectors -----------------------------------------------------

// HistogramVec is a histogram family; With resolves one series.
type HistogramVec struct {
	r *Registry
	f *family
}

// With returns the series for the given label values (created on first
// use).
func (v *HistogramVec) With(values ...string) *Histogram {
	c := v.r.childFor(v.f, values, func(c *child) {
		c.hist = newHistogram(v.r, v.f.buckets)
	})
	return c.hist
}

// childFor resolves (creating if needed) the child for a label-value
// combination, running mk on a newly created child while the write lock
// is still held — so concurrent With calls for a fresh series all see
// the one metric mk installed. The fast path is a read-locked map hit.
func (r *Registry) childFor(f *family, values []string, mk func(*child)) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := labelKey(values)
	r.mu.RLock()
	c := f.children[key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	mk(c)
	f.children[key] = c
	f.order = append(f.order, c)
	return c
}

// labelKey joins label values with a separator that cannot appear in
// them unescaped ambiguity-free (0xFF is invalid UTF-8, so two distinct
// value tuples cannot collide on the joined form).
func labelKey(values []string) string {
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for _, v := range values {
		b = append(b, v...)
		b = append(b, 0xFF)
	}
	return string(b)
}

// --- snapshot ------------------------------------------------------------

// Snapshot returns a point-in-time map of every metric that registered
// a /stats key (Counter.Key and friends) to its value. The whole map is
// gathered under the registry's exclusive lock, so no update is
// observed mid-flight — the /stats JSON view cannot tear across related
// counters.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.families))
	for _, f := range r.families {
		if f.statsKey == "" {
			continue
		}
		out[f.statsKey] = f.scalarValue()
	}
	return out
}

// scalarValue reads a keyed family's value (callback, counter or
// gauge). Caller holds the registry lock.
func (f *family) scalarValue() int64 {
	if f.fn != nil {
		return f.fn()
	}
	if len(f.order) == 0 {
		return 0
	}
	c := f.order[0]
	switch {
	case c.counter != nil:
		return c.counter.v.Load()
	case c.gauge != nil:
		return c.gauge.v.Load()
	}
	return 0
}
