package gcx_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"gcx"
	"gcx/internal/xqgen"
)

// domOracle runs the DOM engine on the query, independent of the
// streaming, join and sharded paths under test.
func domOracle(t *testing.T, src, doc string) string {
	t.Helper()
	q, err := gcx.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	var out bytes.Buffer
	if _, err := q.Execute(strings.NewReader(doc), &out, gcx.Options{Engine: gcx.EngineDOM, Format: gcx.FormatXML}); err != nil {
		t.Fatalf("DOM run: %v\nquery: %s\ndoc: %s", err, src, doc)
	}
	return out.String()
}

// TestJoinDifferential: on randomized join documents and queries, the
// join operator, the nested-loop ablation (WithoutJoin) and the DOM
// oracle must all produce byte-identical output, on bytes and on both
// reader backings. A run asking for 2 or 4 shards falls back to the
// sequential join — no probe output is final before the build side is
// complete — and produces the same bytes. Key values include
// duplicates, empties and entity references (xqgen.JoinKeys), and every
// layout has build tuples close before, between or after the probe
// bindings, where the operator takes their keys.
func TestJoinDifferential(t *testing.T) {
	sizes := []struct{ probe, build int }{{6, 8}, {40, 25}}
	for _, seed := range []int64{1, 2} {
		for _, sz := range sizes {
			for _, layout := range xqgen.JoinLayouts {
				testJoinDifferential(t, seed, sz.probe, sz.build, layout)
			}
		}
	}
}

func testJoinDifferential(t *testing.T, seed int64, probe, build int, layout xqgen.JoinLayout) {
	r := rand.New(rand.NewSource(seed))
	doc := xqgen.JoinDocument(r, probe, build, layout)
	src := xqgen.JoinQuery(r)
	label := fmt.Sprintf("seed %d size %dx%d %s query %s", seed, probe, build, layout, src)

	q, err := gcx.Compile(src)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	if q.Report().Join == nil {
		t.Fatalf("%s: generated join query not detected as a join", label)
	}
	if q.Shardable() || !strings.Contains(q.Explain(), "Sharding: sequential only (detected join") {
		t.Fatalf("%s: Explain does not name the join as the reason for sequential execution:\n%s", label, q.Explain())
	}

	want := domOracle(t, src, doc)

	joinOut, jres, err := q.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatalf("%s: join run: %v", label, err)
	}
	if jres.JoinProbeTuples != int64(probe) {
		t.Fatalf("%s: JoinProbeTuples = %d, want %d (operator did not run?)",
			label, jres.JoinProbeTuples, probe)
	}
	if joinOut != want {
		t.Fatalf("%s: join output differs from DOM\ndoc: %s\n got: %q\nwant: %q",
			label, doc, joinOut, want)
	}
	checkOnReaders(t, q, doc, want, label, gcx.Options{})

	nestOut, nres, err := gcx.WithoutJoin(q).ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatalf("%s: nested run: %v", label, err)
	}
	if nres.JoinProbeTuples != 0 || nres.JoinMatches != 0 {
		t.Fatalf("%s: the nested-loop plan still ran the operator: %+v", label, nres)
	}
	if nestOut != want {
		t.Fatalf("%s: nested-loop output differs from DOM\ndoc: %s\n got: %q\nwant: %q",
			label, doc, nestOut, want)
	}

	for _, shards := range []int{2, 4} {
		opts := gcx.Options{Shards: shards}
		shardOut, sres, err := q.ExecuteString(doc, opts)
		if err != nil {
			t.Fatalf("%s: shards=%d run: %v", label, shards, err)
		}
		if sres.ShardsUsed != 1 || sres.Chunks != 0 || sres.JoinProbeTuples != int64(probe) {
			t.Fatalf("%s: shards=%d: ShardsUsed = %d, Chunks = %d, JoinProbeTuples = %d; want the sequential join",
				label, shards, sres.ShardsUsed, sres.Chunks, sres.JoinProbeTuples)
		}
		if shardOut != want {
			t.Fatalf("%s: shards=%d output differs from DOM\ndoc: %s\n got: %q\nwant: %q",
				label, shards, doc, shardOut, want)
		}
		checkOnReaders(t, q, doc, want, label, opts)
	}
}

// TestJoinBuildChainStaysOnItsVariable: a loop inside the build side
// bound to the probe variable is no part of the build chain. It was
// once taken for one, and the join operator then scanned /a/q/z for
// partners instead of each $p/z, emitting nothing.
func TestJoinBuildChainStaysOnItsVariable(t *testing.T) {
	const src = `<out>{ for $p in /a/p return for $b in /a/q return for $c in $p/z return if ($c/k = $p/k) then $c else () }</out>`
	const doc = `<a><p><k>1</k><z><k>1</k></z></p><q/><q/></a>`
	q := gcx.MustCompile(src)
	if q.Report().Join != nil {
		t.Fatalf("detected as a join:\n%s", q.Explain())
	}
	want := domOracle(t, src, doc)
	if got, _, err := q.ExecuteString(doc, gcx.Options{}); err != nil || got != want {
		t.Fatalf("got %q (%v), want %q", got, err, want)
	}
}

// TestJoinSingleStepProbe: a probe path of one step makes the probe
// chain's head its innermost loop, which the operator runs as the probe
// loop and then finalizes. The generated join queries all have longer
// probe paths. A document has one root element, so at most one side
// matches; the join run, the nested-loop plan and the DOM oracle agree
// on bytes and on the reader backings.
func TestJoinSingleStepProbe(t *testing.T) {
	const src = `<out>{ for $p in /p return <m>{ $p/n, for $b in /b return if ($b/k = $p/k) then $b/v else () }</m> }</out>`
	q := gcx.MustCompile(src)
	if q.Report().Join == nil {
		t.Fatalf("not detected as a join:\n%s", q.Explain())
	}
	for doc, probes := range map[string]int64{
		`<p><k>1</k><n>x</n></p>`: 1,
		`<b><k>1</k><v>y</v></b>`: 0,
	} {
		want, _, err := q.ExecuteString(doc, gcx.Options{Engine: gcx.EngineDOM})
		if err != nil {
			t.Fatal(err)
		}
		if nested, _, err := gcx.WithoutJoin(q).ExecuteString(doc, gcx.Options{}); err != nil || nested != want {
			t.Fatalf("%s: nested-loop plan gives %q (%v), DOM %q", doc, nested, err, want)
		}
		got, res, err := q.ExecuteString(doc, gcx.Options{})
		if err != nil || got != want {
			t.Fatalf("%s: join run gives %q (%v), DOM %q", doc, got, err, want)
		}
		if res.JoinProbeTuples != probes {
			t.Fatalf("%s: JoinProbeTuples = %d, want %d", doc, res.JoinProbeTuples, probes)
		}
		checkOnReaders(t, q, doc, want, doc, gcx.Options{})
	}
}

// checkOnReaders runs q with opts over doc on the reader backing — in
// 16–63-byte chunks and a byte at a time — and fails unless both
// outputs are want.
// There a token's text is a view that the next pull overwrites with
// 0xDB bytes under go test, so a capture that kept one fails here every
// time.
func checkOnReaders(t *testing.T, q *gcx.Query, doc, want, label string, opts gcx.Options) {
	t.Helper()
	for _, in := range []struct {
		name string
		r    io.Reader
	}{
		{"16-63-byte chunks", &chunkedReader{data: []byte(doc), r: rand.New(rand.NewSource(int64(len(doc))))}},
		{"one byte at a time", iotest.OneByteReader(strings.NewReader(doc))},
	} {
		var out strings.Builder
		if _, err := q.Execute(in.r, &out, opts); err != nil {
			t.Fatalf("%s: %s: %v", label, in.name, err)
		}
		if out.String() != want {
			t.Fatalf("%s: output read in %s differs\ndoc: %s\n got: %q\nwant: %q",
				label, in.name, doc, out.String(), want)
		}
	}
}

// chunkedReader hands out data in pieces of 16 to 63 bytes.
type chunkedReader struct {
	data []byte
	r    *rand.Rand
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data[:min(16+c.r.Intn(48), len(c.data))])
	c.data = c.data[n:]
	return n, nil
}

// escapeXMLText renders an arbitrary string as XML character data.
var escapeXMLText = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace

// FuzzJoinKeys pins join/nested/DOM agreement, and the sequential
// fallback of a run asking for shards, on adversarial key values:
// duplicates, empty strings, entity references, whitespace — whatever
// the fuzzer grows from the seeds below — in every section layout
// (xqgen.JoinLayouts, picked by the layout byte). The join operator
// holds at most what the nested-loop plan does, and no more when the
// build records are written twice: it holds no build tuple past its
// close, so its peak does not grow with the build side.
func FuzzJoinKeys(f *testing.F) {
	f.Add(byte(0), "k1", "k1", "k2")
	f.Add(byte(1), "", "", "x")
	f.Add(byte(2), "a&b", "a&b", "<")
	f.Add(byte(0), "dup", "dup", "dup")
	f.Add(byte(2), `q"e`, " s p ", "\tk\t")
	const src = `<out>{ for $p in /root/ps/p return <m>{ $p/n, for $b in /root/bs/b return if ($b/k = $p/k) then $b/v else () }</m> }</out>`
	q, err := gcx.Compile(src)
	if err != nil {
		f.Fatal(err)
	}
	if q.Report().Join == nil {
		f.Fatal("fuzz query not detected as a join")
	}
	nested := gcx.WithoutJoin(q)
	f.Fuzz(func(t *testing.T, layout byte, k1, k2, k3 string) {
		for _, k := range []string{k1, k2, k3} {
			if !utf8.ValidString(k) {
				t.Skip("not valid UTF-8")
			}
			for _, r := range k {
				if r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
					t.Skip("control character invalid in XML")
				}
			}
		}
		l := xqgen.JoinLayouts[int(layout)%len(xqgen.JoinLayouts)]
		probes := []string{
			fmt.Sprintf(`<p><n>n0</n><k>%s</k></p>`, escapeXMLText(k1)),
			fmt.Sprintf(`<p><n>n1</n><k>%s</k></p>`, escapeXMLText(k2)),
		}
		builds := []string{
			fmt.Sprintf(`<b><k>%s</k><v>v0</v></b>`, escapeXMLText(k2)),
			fmt.Sprintf(`<b><k>%s</k><v>v1</v></b>`, escapeXMLText(k3)),
			fmt.Sprintf(`<b><k>%s</k><v>v2</v></b>`, escapeXMLText(k1)),
		}
		doc := xqgen.JoinSections(l, probes, builds)

		joinOut, jres, jerr := q.ExecuteString(doc, gcx.Options{})
		nestOut, nres, nerr := nested.ExecuteString(doc, gcx.Options{})
		domOut, _, derr := q.ExecuteString(doc, gcx.Options{Engine: gcx.EngineDOM})
		if (jerr == nil) != (nerr == nil) || (jerr == nil) != (derr == nil) {
			t.Fatalf("error disagreement: join %v, nested %v, DOM %v\ndoc: %s", jerr, nerr, derr, doc)
		}
		if jerr != nil {
			return // all reject the document identically
		}
		if joinOut != nestOut || joinOut != domOut {
			t.Fatalf("join, nested and DOM outputs differ\ndoc: %s\njoin:   %q\nnested: %q\nDOM:    %q", doc, joinOut, nestOut, domOut)
		}
		if jres.PeakBufferedNodes > nres.PeakBufferedNodes {
			t.Fatalf("join peak %d above the nested-loop plan's %d\ndoc: %s", jres.PeakBufferedNodes, nres.PeakBufferedNodes, doc)
		}
		// Each build record is written twice in its place, so the
		// sections, whose nodes stay buffered to the end, stay as they are.
		doubled := make([]string, len(builds))
		for i, b := range builds {
			doubled[i] = b + b
		}
		twice := xqgen.JoinSections(l, probes, doubled)
		if _, tres, err := q.ExecuteString(twice, gcx.Options{}); err != nil {
			t.Fatalf("build records written twice: %v\ndoc: %s", err, twice)
		} else if tres.PeakBufferedNodes != jres.PeakBufferedNodes {
			t.Fatalf("join peak %d with the build records written twice, %d once\ndoc: %s",
				tres.PeakBufferedNodes, jres.PeakBufferedNodes, twice)
		}
		checkOnReaders(t, q, doc, joinOut, "reader backing", gcx.Options{})
		shardOut, _, serr := q.ExecuteString(doc, gcx.Options{Shards: 3})
		if serr != nil {
			t.Fatalf("sharded run errors where sequential succeeded: %v\ndoc: %s", serr, doc)
		}
		if shardOut != joinOut {
			t.Fatalf("sharded output differs\ndoc: %s\nsharded:    %q\nsequential: %q", doc, shardOut, joinOut)
		}
	})
}
