package core

import (
	"bufio"
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/iotest"

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

// TestRunSniffsPastLeadingWhitespace: FormatAuto resolves the format the
// bytes backing resolves whatever the run of leading whitespace and
// however small the reader's buffer, and a syntax error names the same
// offset on every backing.
func TestRunSniffsPastLeadingWhitespace(t *testing.T) {
	plan, err := Compile(`for $r in /root/record return $r/a`)
	if err != nil {
		t.Fatal(err)
	}
	docs := []struct{ name, doc, want string }{
		{"xml", `<root><record><a>1</a></record></root>`, `<a>1</a>`},
		{"json", `{"a":1}`, `{"a":["1"]}`},
		{"xml-error", `<root><record><a>1</b></record></root>`, ""},
		{"json-error", `{"a":1,}`, ""},
	}
	backings := []struct {
		name string
		in   func(data []byte) Input
	}{
		{"bytes", func(data []byte) Input { return Input{Data: data} }},
		{"reader", func(data []byte) Input { return Input{Reader: bytes.NewReader(data)} }},
		{"bufio16", func(data []byte) Input { return Input{Reader: bufio.NewReaderSize(bytes.NewReader(data), 16)} }},
		{"onebyte", func(data []byte) Input { return Input{Reader: iotest.OneByteReader(bytes.NewReader(data))} }},
	}
	run := func(in Input) string {
		var out strings.Builder
		if _, err := Run(context.Background(), plan, in, &out, engine.Config{}, new(stats.Run)); err != nil {
			return "error: " + err.Error()
		}
		return strings.TrimSpace(out.String())
	}
	for _, n := range []int{0, 4095, 4096, 4097, 1 << 20} {
		ws := make([]byte, n)
		for i := range ws {
			ws[i] = " \t\r\n"[i%4]
		}
		for _, d := range docs {
			data := append(ws[:n:n], d.doc...)
			want := run(backings[0].in(data))
			if d.want != "" && want != d.want {
				t.Fatalf("%s after %d whitespace bytes on bytes: %q, want %q", d.name, n, want, d.want)
			}
			if d.want == "" && !strings.HasPrefix(want, "error: ") {
				t.Fatalf("%s after %d whitespace bytes on bytes: %q, want an error", d.name, n, want)
			}
			for _, b := range backings[1:] {
				if got := run(b.in(data)); got != want {
					t.Errorf("%s after %d whitespace bytes on %s: %q, bytes read %q", d.name, n, b.name, got, want)
				}
			}
		}
	}
}
