package gcx_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"gcx"
	"gcx/internal/core"
	"gcx/internal/engine"
	"gcx/internal/event"
	"gcx/internal/stats"
	"gcx/internal/xmark"
	"gcx/internal/xmltok"
)

// seekless wraps a Source so that a Seek answer of its skipper arrives
// as Live: the run skips dead children as before and seeks nothing.
type seekless struct{ event.Source }

func (s seekless) SetSkipper(k event.Skipper) {
	if k != nil {
		k = liveSeek{k}
	}
	s.Source.SetSkipper(k)
}

type liveSeek struct{ event.Skipper }

func (l liveSeek) Child(name string) (event.Verdict, []string) {
	if v, sought := l.Skipper.Child(name); v != event.Seek {
		return v, sought
	}
	return event.Live, nil
}

// seekInput is one backing of TestSeekParity's inputs.
type seekInput struct {
	name string
	r    func(doc string) io.Reader // nil: the bytes backing
}

var seekInputs = []seekInput{
	{"bytes", nil},
	{"reader", func(doc string) io.Reader { return strings.NewReader(doc) }},
	{"one-byte reader", func(doc string) io.Reader { return iotest.OneByteReader(strings.NewReader(doc)) }},
}

// runSeekEngine runs the skipping plan of query over doc on one engine
// and backing, seeking or (seek false) not, and returns the output, the
// record and the role balance (nil on the projection engine, which
// never signs off).
func runSeekEngine(t *testing.T, query, doc string, projection bool, in seekInput, seek bool) (string, *stats.Run, error) {
	t.Helper()
	plan, err := core.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	var src event.Source = xmltok.NewTokenizerBytes([]byte(doc))
	if in.r != nil {
		src = xmltok.NewTokenizer(in.r(doc))
	}
	if !seek {
		src = seekless{src}
	}
	defer src.Release()
	var out strings.Builder
	sink := xmltok.NewSerializer(&out)
	defer sink.Release()
	e := engine.New(plan, src, sink, engine.Config{DisableGC: projection})
	defer e.Release()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var balance error
	if !projection {
		balance = e.CheckBalance()
	}
	return out.String(), res, balance
}

// watermarks are the buffer figures a seek must leave alone.
func watermarks(r *gcx.Result) string {
	return fmt.Sprintf("peak_nodes=%d peak_bytes=%d appended=%d purged=%d",
		r.PeakBufferedNodes, r.PeakBufferedBytes, r.TotalAppended, r.TotalPurged)
}

// TestSeekParity pins seeking below descendant steps (DESIGN.md §7,
// "Seeking below descendant steps"): sought names two and more levels
// under a sought child, below chain elements with attributes; nested
// sought names (//a//b, //item[1], items inside items); and XMark Q6,
// Q6count and E1. Every run, skipping on and off, on the bytes backing,
// a reader and a one-byte reader, sequential and at two and four
// shards, on the gcx and the projection engine, writes what the DOM
// engine writes. Per engine and backing, a sequential run that seeks
// buffers what the same plan buffers without seeking: the same peak in
// nodes and bytes (the chain arrives with its attributes), the same
// nodes appended and purged, with the role balance closed; sharded, the
// figures agree across the backings. (The no-skip plan is no reference
// for these: it neither prunes nor streams output.)
func TestSeekParity(t *testing.T) {
	xmarkDoc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 64 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	skeleton := `<a><skel1 k="1"><n>x</n><skel2 q="&amp;x" r='2'><n/><c/></skel2></skel1><d><m>y</m><e f="g"><c>t</c></e></d><c/></a>`
	nestedAB := `<r><x k="1"><a><y z="2"><b>1</b><a><b>2</b></a></y></a></x><a/><q><b>3</b></q><a><w><w><b>4</b></w></w></a></r>`
	firsts := `<r><x><y k="v"/><z><item>1</item></z></x><item>2</item><w><item>3</item></w></r>`
	// The first item holds nothing sought: its latch flip must stand.
	firstEmpty := `<r><x><item><q/></item></x><item><name>second</name></item></r>`
	// seeks says whether a seek passes over anything: E1 keeps every
	// item subtree, and its items are the continents' children.
	cases := []struct {
		name, query, doc string
		seeks            bool
	}{
		{"skeleton", `<out>{ for $c in /a//c return $c }</out>`, skeleton, true},
		{"nested a//b", `<out>{ for $a in /r//a return <a>{ for $b in $a//b return $b }</a> }</out>`, nestedAB, true},
		{"first item", `<out>{ for $r in /r return $r//item[1] }</out>`, firsts, true},
		{"first item, nothing below", `<out>{ for $r in /r return $r//item[1]//name }</out>`, firstEmpty, true},
		{"items in items Q6", xmark.Queries["Q6"].Text, nestedItems, true},
		{"items in items E1", queryE1, nestedItems, false},
		{"Q6", xmark.Queries["Q6"].Text, xmarkDoc, true},
		{"Q6count", xmark.Queries["Q6count"].Text, xmarkDoc, true},
		{"E1", queryE1, xmarkDoc, false},
	}
	engines := []struct {
		name string
		e    gcx.Engine
	}{{"gcx", gcx.EngineGCX}, {"projection", gcx.EngineProjectionOnly}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := gcx.MustCompile(c.query)
			want, _, err := q.ExecuteString(c.doc, gcx.Options{Engine: gcx.EngineDOM})
			if err != nil {
				t.Fatal(err)
			}
			seeks := false
			for _, eng := range engines {
				projection := eng.e == gcx.EngineProjectionOnly
				for _, in := range seekInputs {
					refOut, ref, _ := runSeekEngine(t, c.query, c.doc, projection, in, false)
					got, res, balance := runSeekEngine(t, c.query, c.doc, projection, in, true)
					if refOut != want || got != want {
						t.Fatalf("%s, %s: output differs from the DOM engine\nseek:    %s\nno seek: %s\nDOM:     %s", eng.name, in.name, got, refOut, want)
					}
					if watermarks(res) != watermarks(ref) {
						t.Errorf("%s, %s: seeking %s, not seeking %s", eng.name, in.name, watermarks(res), watermarks(ref))
					}
					if balance != nil {
						t.Errorf("%s, %s: role balance: %v", eng.name, in.name, balance)
					}
					if res.TokensProcessed > ref.TokensProcessed {
						t.Errorf("%s, %s: seeking delivered %d tokens, not seeking %d", eng.name, in.name, res.TokensProcessed, ref.TokensProcessed)
					}
					seeks = seeks || res.TokensProcessed < ref.TokensProcessed
				}
				for _, v := range []*gcx.Query{q, gcx.WithoutSkip(q)} {
					for _, shards := range []int{0, 2, 4} {
						first := ""
						for _, in := range seekInputs {
							opts := gcx.Options{Engine: eng.e, Shards: shards}
							var out strings.Builder
							var res *gcx.Result
							if in.r == nil {
								res, err = v.ExecuteBytes([]byte(c.doc), &out, opts)
							} else {
								res, err = v.Execute(in.r(c.doc), &out, opts)
							}
							if err != nil {
								t.Fatal(err)
							}
							if out.String() != want {
								t.Fatalf("%s, %s, skip %v, shards %d: output differs from the DOM engine\n got: %s\nwant: %s", eng.name, in.name, v == q, shards, out.String(), want)
							}
							if first == "" {
								first = watermarks(res)
							} else if watermarks(res) != first {
								t.Errorf("%s, %s, skip %v, shards %d: %s, bytes backing %s", eng.name, in.name, v == q, shards, watermarks(res), first)
							}
						}
					}
				}
			}
			if seeks != c.seeks {
				t.Errorf("a seek saved tokens: %v, want %v", seeks, c.seeks)
			}
		})
	}
}
