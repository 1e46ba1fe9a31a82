package stats

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"gcx/internal/obs"
)

// Run is the statistics record of one execution — the only one: the
// engine (or the DOM oracle) creates it, internal/core adds the timing,
// internal/shard folds the per-chunk records of a sharded run into one
// with Merge, and the public gcx.Result is this type. Every integer
// field has one row in Fields, which is what carries it to the `gcx
// -stats` line and to gcxd's trailers, /stats and /metrics.
type Run struct {
	// TokensProcessed is the number of input tokens delivered to the
	// engine. With subtree skipping active (the default, DESIGN.md §7)
	// tokens inside skipped subtrees are not produced and therefore not
	// counted — see BytesSkipped/TagsSkipped for what was
	// fast-forwarded. Runs with RecordEvery set, and runs of a reference
	// plan that does not skip, count every token of the document.
	TokensProcessed int64
	// PeakBufferedNodes is the buffer high watermark in nodes.
	PeakBufferedNodes int64
	// PeakBufferedBytes estimates the memory high watermark.
	PeakBufferedBytes int64
	// FinalBufferedNodes is the buffer population after evaluation (0
	// for GCX; the whole projected document without garbage collection).
	FinalBufferedNodes int64
	// TotalAppended and TotalPurged count buffer churn over the run.
	TotalAppended int64
	TotalPurged   int64
	// OutputBytes is the size of the serialized result.
	OutputBytes int64
	// BytesSkipped is the number of input bytes the engine
	// fast-forwarded past at byte level without tokenizing, because the
	// preprojector found them dead: no projection path could observe
	// them (DESIGN.md §7). Zero on the DOM engine, in recording runs,
	// for a reference plan that does not skip, and when the query
	// observes the whole document.
	BytesSkipped int64
	// TagsSkipped counts element tags inside skipped subtrees — a lower
	// bound on the tokens the run did not have to produce (text runs in
	// skipped subtrees are not counted).
	TagsSkipped int64
	// SubtreesSkipped counts byte-level fast-forwards taken.
	SubtreesSkipped int64
	// JoinProbeTuples, JoinBuildTuples and JoinMatches report the
	// streaming hash join operator's work (DESIGN.md §10): probe-side
	// bindings captured, build-side tuples materialized into the hash
	// table, and matched payload emissions. All zero when the query has
	// no detected join and on the DOM engine.
	JoinProbeTuples int64
	JoinBuildTuples int64
	JoinMatches     int64
	// Duration is the wall-clock execution time. It is stamped by
	// whoever ran the clock (core for a sequential run, shard for a
	// sharded one) and is not merged.
	Duration time.Duration
	// Series is the recorded buffer plot (empty unless
	// Options.RecordEvery was set).
	Series []Point
	// ShardsUsed is the number of parallel engine instances the run
	// used: 1 for the sequential path (including fallbacks from
	// Options.Shards > 1), the worker count when sharding was applied.
	// Under sharding the counters are sums over the chunks and the
	// buffer watermarks sums of per-chunk peaks — an upper bound on the
	// true simultaneous peak (DESIGN.md §6).
	ShardsUsed int
	// Chunks is the number of input partitions of a sharded run
	// (0 for sequential runs).
	Chunks int
	// Trace is the per-phase wall-time breakdown of the run, starting
	// with the query's compile time; nil unless Options.EnableTrace was
	// set.
	Trace []obs.PhaseTime
}

// Fold says how a field combines when records are merged.
type Fold uint8

const (
	// Sum adds the values.
	Sum Fold = iota
	// Max keeps the larger value.
	Max
)

// Field is one row of the statistics table: everything the rest of the
// system needs to know about one integer field of Run. Empty strings
// mean "not exposed there".
type Field struct {
	// Name is the Run field the row describes.
	Name string
	// Fold is how Merge combines the field across a sharded run's chunk
	// records.
	Fold Fold
	// Label is the key on the `gcx -stats` line.
	Label string
	// Key, Metric and Help register the field with gcxd: the /stats JSON
	// key and the /metrics family. A Watermark is kept as a gauge holding
	// the lifetime maximum over all requests, anything else as a counter
	// totalled over them.
	Key, Metric, Help string
	Watermark         bool
	// Trailer is the HTTP trailer gcxd reports the field in.
	Trailer string

	index int // of Name in Run
}

// Fields is the statistics table, in `gcx -stats` order. Adding a
// counter means adding a field to Run, a row here, and the assignment in
// its producer (DESIGN.md, "Execution surface").
var Fields = []Field{
	{Name: "TokensProcessed", Label: "tokens", Trailer: "X-Gcx-Tokens"},
	{Name: "PeakBufferedNodes", Label: "peak_nodes", Trailer: "X-Gcx-Peak-Nodes", Watermark: true,
		Key: "peak_buffered_nodes", Metric: "gcx_peak_buffered_nodes", Help: "Lifetime buffer high-water mark in nodes, across all requests."},
	{Name: "PeakBufferedBytes", Label: "peak_bytes", Trailer: "X-Gcx-Peak-Bytes", Watermark: true,
		Key: "peak_buffered_bytes", Metric: "gcx_peak_buffered_bytes", Help: "Lifetime buffer high-water mark in bytes, across all requests."},
	{Name: "FinalBufferedNodes", Label: "final_nodes"},
	{Name: "TotalAppended", Label: "appended"},
	{Name: "TotalPurged", Label: "purged"},
	{Name: "OutputBytes", Label: "output_bytes"},
	{Name: "BytesSkipped", Label: "bytes_skipped", Trailer: "X-Gcx-Bytes-Skipped",
		Key: "bytes_skipped", Metric: "gcx_input_bytes_skipped_total", Help: "Input bytes fast-forwarded past by subtree skipping."},
	{Name: "TagsSkipped", Label: "tags_skipped"},
	{Name: "ShardsUsed", Label: "shards", Trailer: "X-Gcx-Shards", Fold: Max},
	{Name: "Chunks", Label: "chunks"},
	{Name: "JoinProbeTuples", Label: "join_probe",
		Key: "join_probe_tuples", Metric: "gcx_join_probe_tuples_total", Help: "Probe-side bindings captured by the streaming join."},
	{Name: "JoinBuildTuples", Label: "join_build",
		Key: "join_build_tuples", Metric: "gcx_join_build_tuples_total", Help: "Build-side tuples materialized by the streaming join."},
	{Name: "JoinMatches", Label: "join_matches",
		Key: "join_matches", Metric: "gcx_join_matches_total", Help: "Matched payload emissions of the streaming join."},
	{Name: "SubtreesSkipped", Label: "subtrees_skipped",
		Key: "subtrees_skipped", Metric: "gcx_subtrees_skipped_total", Help: "Byte-level subtree fast-forwards taken."},
}

func init() {
	t := reflect.TypeOf(Run{})
	for i := range Fields {
		sf, ok := t.FieldByName(Fields[i].Name)
		if !ok {
			panic("stats: table row names no Run field: " + Fields[i].Name)
		}
		Fields[i].index = sf.Index[0]
	}
}

// Get reads the row's field from r.
func (f *Field) Get(r *Run) int64 {
	return reflect.ValueOf(r).Elem().Field(f.index).Int()
}

// Merge folds o into r, field by field as the table says, and sums the
// traces phase by phase. Duration and Series are left alone: the merged
// run's wall time is its caller's to measure, and recording runs are
// never sharded.
func (r *Run) Merge(o *Run) {
	rv, ov := reflect.ValueOf(r).Elem(), reflect.ValueOf(o).Elem()
	for i := range Fields {
		f := &Fields[i]
		dst, v := rv.Field(f.index), ov.Field(f.index).Int()
		switch {
		case f.Fold == Sum:
			dst.SetInt(dst.Int() + v)
		case v > dst.Int():
			dst.SetInt(v)
		}
	}
	if len(o.Trace) > 0 {
		r.Trace = obs.SumPhases(r.Trace, o.Trace)
	}
}

// String renders the record as the `gcx -stats` line: one label=value
// pair per table row, then the wall time.
func (r *Run) String() string {
	var b strings.Builder
	for i := range Fields {
		b.WriteString(Fields[i].Label)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(Fields[i].Get(r), 10))
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "time=%s", r.Duration)
	return b.String()
}
