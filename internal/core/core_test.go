package core

import (
	"context"
	"strings"
	"testing"

	"gcx/internal/engine"
	"gcx/internal/stats"
)

const doc = `<bib><book><title>A</title></book><book><title>B</title></book></bib>`
const query = `<out>{ for $b in /bib/book return $b/title }</out>`

func TestCompile(t *testing.T) {
	plan, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Source != query {
		t.Fatal("Source not recorded")
	}
	if len(plan.Roles) == 0 || plan.Rewritten == nil || plan.Normalized == nil {
		t.Fatal("plan incomplete")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(`for $x in`); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := Compile(`$nope/x`); err == nil {
		t.Fatal("analysis error not surfaced")
	}
}

func TestRunAllEngines(t *testing.T) {
	plan, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	want := `<out><title>A</title><title>B</title></out>`
	for name, cfg := range map[string]engine.Config{
		"gcx": {}, "projection": {DisableGC: true}, "dom": {Oracle: true},
	} {
		for _, in := range []Input{{Reader: strings.NewReader(doc)}, {Data: []byte(doc)}} {
			var out strings.Builder
			res, err := Run(context.Background(), plan, in, &out, cfg, new(stats.Run))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out.String() != want {
				t.Fatalf("%s output = %q", name, out.String())
			}
			if res.Duration <= 0 {
				t.Fatalf("%s duration not measured", name)
			}
			if res.PeakBufferedNodes <= 0 || res.ShardsUsed != 1 {
				t.Fatalf("%s: peak %d, shards used %d", name, res.PeakBufferedNodes, res.ShardsUsed)
			}
		}
	}
}

func TestRunRecordsSeries(t *testing.T) {
	plan, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	res, err := Run(context.Background(), plan, Input{Data: []byte(doc)}, &out, engine.Config{RecordEvery: 1}, new(stats.Run))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("series not recorded")
	}
	// recording is a streaming-engine feature; DOM ignores it
	res, err = Run(context.Background(), plan, Input{Data: []byte(doc)}, &out, engine.Config{Oracle: true, RecordEvery: 1}, new(stats.Run))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 0 {
		t.Fatal("DOM must not record a series")
	}
}

// TestRunSniffsAuto: FormatAuto resolves from the first non-whitespace
// byte on both input shapes, without consuming it.
func TestRunSniffsAuto(t *testing.T) {
	plan, err := Compile(`for $r in /root/record return $r/a`)
	if err != nil {
		t.Fatal(err)
	}
	const ndjson = " \n{\"a\":1}\n"
	for _, in := range []Input{{Reader: strings.NewReader(ndjson)}, {Data: []byte(ndjson)}} {
		var out strings.Builder
		if _, err := Run(context.Background(), plan, in, &out, engine.Config{}, new(stats.Run)); err != nil {
			t.Fatal(err)
		}
		if got, want := strings.TrimSpace(out.String()), `{"a":["1"]}`; got != want {
			t.Fatalf("output = %q, want %q (the JSON front end)", got, want)
		}
	}
}
