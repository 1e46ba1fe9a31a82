package dom

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gcx/internal/analysis"
	"gcx/internal/engine"
	"gcx/internal/xmltok"
	"gcx/internal/xqgen"
	"gcx/internal/xqparse"
)

// ---- the differential property -------------------------------------------

// runAll compiles and runs a query on a document with the DOM oracle and
// the streaming configurations, returning the outputs.
func runAll(t *testing.T, src, doc string) (oracle string, streaming map[string]string) {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, src)
	}
	plan, err := analysis.Analyze(q)
	if err != nil {
		t.Fatalf("generated query does not analyze: %v\n%s", err, src)
	}

	// Ablated analyses must agree too: no first-witness pruning, and
	// coarse subtree granularity.
	noWitness, err := analysis.AnalyzeWithOptions(q, analysis.Options{DisableFirstWitness: true})
	if err != nil {
		t.Fatalf("no-witness analysis: %v\n%s", err, src)
	}
	coarse, err := analysis.AnalyzeWithOptions(q, analysis.Options{CoarseGranularity: true})
	if err != nil {
		t.Fatalf("coarse analysis: %v\n%s", err, src)
	}

	var out bytes.Buffer
	tz, sink := xmltok.NewTokenizer(strings.NewReader(doc)), xmltok.NewSerializer(&out)
	_, err = Run(context.Background(), plan, tz, sink, 0)
	tz.Release()
	sink.Release()
	if err != nil {
		t.Fatalf("DOM run: %v\nquery: %s\ndoc: %s", err, src, doc)
	}
	oracle = out.String()

	type variant struct {
		plan *analysis.Plan
		cfg  engine.Config
	}
	streaming = map[string]string{}
	for name, v := range map[string]variant{
		"gcx":       {plan, engine.Config{}},
		"nogc":      {plan, engine.Config{DisableGC: true}},
		"nowitness": {noWitness, engine.Config{}},
		"coarse":    {coarse, engine.Config{}},
	} {
		cfg := v.cfg
		var b bytes.Buffer
		e := engine.New(v.plan, xmltok.NewTokenizer(strings.NewReader(doc)), xmltok.NewSerializer(&b), cfg)
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s run: %v\nquery: %s\ndoc: %s", name, err, src, doc)
		}
		if err := e.Buffer().CheckInvariants(); err != nil {
			t.Fatalf("%s invariants: %v\nquery: %s\ndoc: %s", name, err, src, doc)
		}
		if !cfg.DisableGC {
			if err := e.CheckBalance(); err != nil {
				t.Fatalf("%s balance: %v\nquery: %s\ndoc: %s\n%s", name, err, src, doc, e.Buffer().Dump(nil))
			}
			if res.FinalBufferedNodes != 0 {
				t.Fatalf("%s left %d nodes buffered\nquery: %s\ndoc: %s\n%s",
					name, res.FinalBufferedNodes, src, doc, e.Buffer().Dump(nil))
			}
		}
		streaming[name] = b.String()
	}
	return oracle, streaming
}

// TestDifferentialRandomized is the central correctness oracle: on
// randomized documents and queries, the streaming GCX engine (with and
// without GC, and on the ablated analyses) must produce exactly
// the DOM engine's output, empty its buffer, and balance every role.
func TestDifferentialRandomized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xqgen.Document(r)
		src := xqgen.Query(r, xqgen.DefaultOptions())
		oracle, streaming := runAll(t, src, doc)
		for name, got := range streaming {
			if got != oracle {
				t.Logf("seed %d: %s output differs\nquery: %s\ndoc: %s\noracle: %q\n%s: %q",
					seed, name, src, doc, oracle, name, got)
				return false
			}
		}
		return true
	}
	n := 400
	if testing.Short() {
		n = 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialFixedCorpus pins a set of tricky hand-written cases
// (regression corpus independent of the random generator).
func TestDifferentialFixedCorpus(t *testing.T) {
	docs := []string{
		`<root></root>`,
		`<root><a><a><a/></a></a></root>`,
		`<root><a id="1">x<b>y</b>z</a><a id="2"><b/></a></root>`,
		`<root><b k="0"><c>1</c></b><a><c>1</c></a><b><c>2</c></b></root>`,
	}
	queries := []string{
		`<out>{ for $x in /root//a return $x }</out>`,
		`<out>{ for $x in /root/a return for $y in $x//a return <n>{$y/@id}</n> }</out>`,
		`<out>{ for $x in /root/* return if ($x/c = /root/a/c) then $x else () }</out>`,
		`<out>{ if (exists /root/a/b) then /root/a/b else "none" }</out>`,
		`<out>{ for $x in /root/descendant-or-self::node() return "n" }</out>`,
		`<out>{ for $x in /root/a/text() return <t>{$x}</t> }</out>`,
		`<out>{ count(/root//c) }</out>`,
	}
	for _, doc := range docs {
		for _, src := range queries {
			oracle, streaming := runAll(t, src, doc)
			for name, got := range streaming {
				if got != oracle {
					t.Errorf("%s differs\nquery: %s\ndoc: %s\noracle: %q\ngot: %q",
						name, src, doc, oracle, got)
				}
			}
		}
	}
}
