package stats

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gcx/internal/obs"
)

// TestTableIsTheRecord: every integer field of Run except Duration (wall
// time, stamped and never merged) has exactly one table row and every
// row names such a field, so a counter added to Run without a row — or
// a row left behind by a removed counter — fails here instead of being
// silently dropped by Merge, the -stats line and gcxd.
func TestTableIsTheRecord(t *testing.T) {
	rows := map[string]int{}
	for _, f := range Fields {
		rows[f.Name]++
		if f.Label == "" {
			t.Errorf("row %s has no -stats label", f.Name)
		}
		if (f.Metric == "") != (f.Key == "") || (f.Metric == "") != (f.Help == "") {
			t.Errorf("row %s: Key, Metric and Help must be set together", f.Name)
		}
		if f.Watermark && f.Metric == "" {
			t.Errorf("row %s is a watermark without a metric", f.Name)
		}
	}
	rt := reflect.TypeOf(Run{})
	for i := 0; i < rt.NumField(); i++ {
		sf := rt.Field(i)
		switch sf.Type.Kind() {
		case reflect.Int, reflect.Int64:
		default:
			continue
		}
		if sf.Type == reflect.TypeOf(time.Duration(0)) {
			continue
		}
		if rows[sf.Name] != 1 {
			t.Errorf("Run.%s has %d table rows, want 1", sf.Name, rows[sf.Name])
		}
		delete(rows, sf.Name)
	}
	for name := range rows {
		t.Errorf("table row %s names no integer field of Run", name)
	}
}

// TestMergeProperty: merging N copies of a record multiplies every Sum
// row by N, leaves every Max row alone, sums the trace phase by phase
// and appends the series with its tokens counted after the receiver's;
// Duration stays the receiver's.
func TestMergeProperty(t *testing.T) {
	one := &Run{Duration: time.Second, Series: []Point{{Token: 1, Nodes: 2}, {Token: 3, Nodes: 1}}}
	rv := reflect.ValueOf(one).Elem()
	for i, f := range Fields {
		rv.FieldByName(f.Name).SetInt(int64(3 + i)) // distinct per field
	}
	one.Trace = []obs.PhaseTime{{Phase: "stream", Nanos: 5}, {Phase: "eval", Nanos: 7}}

	const n = 4
	var agg Run
	for i := 0; i < n; i++ {
		agg.Merge(one)
	}
	for i := range Fields {
		f := &Fields[i]
		want := f.Get(one)
		if f.Fold == Sum {
			want *= n
		}
		if got := f.Get(&agg); got != want {
			t.Errorf("%s after %d merges = %d, want %d", f.Name, n, got, want)
		}
	}
	want := []obs.PhaseTime{{Phase: "stream", Nanos: 5 * n}, {Phase: "eval", Nanos: 7 * n}}
	if !reflect.DeepEqual(agg.Trace, want) {
		t.Errorf("trace = %+v, want %+v", agg.Trace, want)
	}
	if agg.Duration != 0 {
		t.Errorf("Merge touched Duration (%v)", agg.Duration)
	}
	if len(agg.Series) != n*len(one.Series) {
		t.Fatalf("merged series has %d points, want %d", len(agg.Series), n*len(one.Series))
	}
	tokens := one.TokensProcessed
	for i, p := range agg.Series {
		src := one.Series[i%len(one.Series)]
		if want := src.Token + int64(i/len(one.Series))*tokens; p.Token != want || p.Nodes != src.Nodes {
			t.Errorf("series[%d] = %+v, want token %d nodes %d", i, p, want, src.Nodes)
		}
	}
	if one.Series[0].Token != 1 {
		t.Error("Merge changed the merged record's series")
	}
}

// TestStringIsTheStatsLine: one label=value pair per row in table
// order, wall time last.
func TestStringIsTheStatsLine(t *testing.T) {
	r := &Run{TokensProcessed: 12, ShardsUsed: 1, SubtreesSkipped: 3, Duration: 1500 * time.Microsecond}
	got := r.String()
	if !strings.HasPrefix(got, "tokens=12 peak_nodes=0 ") || !strings.HasSuffix(got, " subtrees_skipped=3 time=1.5ms") {
		t.Fatalf("String() = %q", got)
	}
	if n := len(strings.Fields(got)); n != len(Fields)+1 {
		t.Fatalf("String() has %d pairs, want %d", n, len(Fields)+1)
	}
}
