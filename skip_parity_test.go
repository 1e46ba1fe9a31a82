package gcx_test

import (
	"errors"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/iotest"

	"gcx"
	"gcx/internal/jsontok"
	"gcx/internal/xmark"
	"gcx/internal/xmltok"
	"gcx/internal/xqgen"
)

// TestSkipParityXMark is the correctness pin of projection-guided
// subtree skipping (DESIGN.md §7): over the XMark suite, the skipping
// engine's output must be byte-identical to the non-skipping engine's,
// for both streaming disciplines, across generator seeds — and the
// queries whose projection paths exclude large document sections must
// actually skip bytes.
func TestSkipParityXMark(t *testing.T) {
	queries := []string{"Q1", "Q6", "Q8", "Q13", "Q20"}
	// Queries whose role paths leave whole top-level sections dead;
	// the acceptance bar requires nonzero BytesSkipped on these.
	mustSkip := map[string]bool{"Q1": true, "Q6": true, "Q13": true}
	for _, seed := range []int64{1, 7} {
		doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, qid := range queries {
			entry := xmark.Queries[qid]
			q, err := gcx.Compile(entry.Text)
			if err != nil {
				t.Fatalf("%s: %v", qid, err)
			}
			for _, eng := range []struct {
				name string
				opt  gcx.Engine
			}{{"gcx", gcx.EngineGCX}, {"projection", gcx.EngineProjectionOnly}} {
				base := gcx.Options{Engine: eng.opt}

				wantOut, wantRes, err := gcx.WithoutSkip(q).ExecuteString(doc, base)
				if err != nil {
					t.Fatalf("%s/%s noskip: %v", qid, eng.name, err)
				}
				if wantRes.BytesSkipped != 0 || wantRes.SubtreesSkipped != 0 {
					t.Fatalf("%s/%s: skip-disabled run reported skipping: %+v", qid, eng.name, wantRes)
				}

				gotOut, gotRes, err := q.ExecuteString(doc, base)
				if err != nil {
					t.Fatalf("%s/%s skip: %v", qid, eng.name, err)
				}
				if gotOut != wantOut {
					t.Fatalf("%s/%s seed %d: output diverges with skipping on\nskip:   %.200q\nnoskip: %.200q",
						qid, eng.name, seed, gotOut, wantOut)
				}
				if gotRes.OutputBytes != wantRes.OutputBytes {
					t.Fatalf("%s/%s: OutputBytes %d != %d", qid, eng.name, gotRes.OutputBytes, wantRes.OutputBytes)
				}
				if mustSkip[qid] && gotRes.BytesSkipped == 0 {
					t.Fatalf("%s/%s: expected nonzero BytesSkipped", qid, eng.name)
				}
				if gotRes.BytesSkipped > 0 && gotRes.TokensProcessed >= wantRes.TokensProcessed {
					t.Fatalf("%s/%s: skipping did not reduce tokens (%d vs %d)",
						qid, eng.name, gotRes.TokensProcessed, wantRes.TokensProcessed)
				}
			}
		}
	}
}

// TestSkipParitySharded: sharded runs ride the same skipping engine in
// every worker; output must stay byte-identical to the sequential
// non-skipping run, and worker skipping must surface in the aggregated
// counters.
func TestSkipParitySharded(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q, err := gcx.Compile(xmark.Queries["Q1"].Text)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Shardable() {
		t.Fatal("Q1 must be shardable")
	}
	want, _, err := gcx.WithoutSkip(q).ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := q.ExecuteString(doc, gcx.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sharded skipping output diverges\ngot:  %.200q\nwant: %.200q", got, want)
	}
	if res.BytesSkipped == 0 {
		t.Fatal("sharded Q1 should report worker-side BytesSkipped")
	}
}

// TestRecordingObserves: a recording run is the run the counters
// describe. On 1 MiB of XMark it writes the same bytes and reports the
// same statistics as the run that does not record, sequential and at
// four shards: Q1 still peaks at 3 and Q6 at 4, and both skip the same
// bytes. Its series has a point every RecordEvery tokens of the run's
// count, increasing, sharded too, and at RecordEvery 1 it peaks at the
// run's peak.
func TestRecordingObserves(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id, peak := range map[string]int64{"Q1": 3, "Q6": 4} {
		q := gcx.MustCompile(xmark.Queries[id].Text)
		for _, shards := range []int{0, 4} {
			want, plain, err := q.ExecuteString(doc, gcx.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if shards == 0 && (plain.PeakBufferedNodes != peak || plain.BytesSkipped == 0) || shards > 0 && plain.ShardsUsed < 2 {
				t.Fatalf("%s shards=%d: %s", id, shards, statsRow(plain))
			}
			for _, every := range []int64{1, 1000} {
				got, res, err := q.ExecuteString(doc, gcx.Options{Shards: shards, RecordEvery: every})
				if err != nil {
					t.Fatal(err)
				}
				if got != want || statsRow(res) != statsRow(plain) {
					t.Errorf("%s shards=%d every=%d: recording moved the run (identical output %v)\n got: %s\nwant: %s",
						id, shards, every, got == want, statsRow(res), statsRow(plain))
				}
				if n := int64(len(res.Series)); n == 0 || n != res.TokensProcessed/every {
					t.Errorf("%s shards=%d every=%d: %d points over %d tokens", id, shards, every, n, res.TokensProcessed)
				}
				var top int64
				for i, p := range res.Series {
					if p.Token != int64(i+1)*every {
						t.Fatalf("%s shards=%d every=%d: point %d at token %d", id, shards, every, i, p.Token)
					}
					top = max(top, p.Nodes)
				}
				if every == 1 && top != res.PeakBufferedNodes {
					t.Errorf("%s shards=%d: series peaks at %d, the run at %d", id, shards, top, res.PeakBufferedNodes)
				}
			}
		}
	}
}

// statsRow is the `gcx -stats` line without its wall time.
func statsRow(res *gcx.Result) string {
	row, _, _ := strings.Cut(res.String(), " time=")
	return row
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// The two dead-test regressions FuzzSkipParity is seeded with besides
// the catalog and generated pairs. latchQuery: d matches $a/*[1] and
// fails self::c, yet its latch flip must make c fail too. chainQuery:
// ten wildcard steps below a descendant step, a path set whose subset
// construction has thousands of states; the item test needs none.
const (
	latchQuery = `<out>{ for $a in /r/a return if (exists($a/*[1]/self::c)) then "yes" else "no" }</out>`
	latchDoc   = `<r><a><d/><c/></a></r>`
	chainQuery = `<out>{ for $x in /r/x//b return $x/*/*/*/*/*/*/*/*/*/*/c }</out>`
	chainDoc   = `<r><x><b><n1><n2><n3><n4><n5><n6><n7><n8><n9><n10><c>hit</c></n10></n9></n8></n7></n6></n5></n4></n3></n2></n1></b></x>` +
		`<y><z>dead</z></y></r>`
)

// TestSkipWildcardChain: a descendant step followed by ten wildcard
// steps still skips, so the dead /r/y section is never tokenized, and
// the output is the DOM oracle's.
func TestSkipWildcardChain(t *testing.T) {
	q, err := gcx.Compile(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Explain(), "Skipping: byte-level subtree skipping active") {
		t.Fatalf("skipping is not active:\n%s", q.Explain())
	}
	want, _, err := q.ExecuteString(chainDoc, gcx.Options{Engine: gcx.EngineDOM})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := q.ExecuteString(chainDoc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !strings.Contains(got, "hit") {
		t.Fatalf("output %q, DOM oracle %q", got, want)
	}
	if res.SubtreesSkipped < 1 {
		t.Fatalf("nothing skipped: %s", res)
	}
}

// errClass names the kind of a run's error, the part of it every
// execution mode must agree on.
func errClass(err error) string {
	var xe *xmltok.SyntaxError
	var je *jsontok.SyntaxError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &xe), errors.As(err, &je):
		return "syntax"
	case errors.Is(err, gcx.ErrBufferBudget):
		return "budget"
	}
	return "other"
}

var loopKeyword = regexp.MustCompile(`\b(for|some|every)\s+\$`)

// nestedWork bounds what nested loops over doc may cost: its node count
// to the power of the query's loop count. Mutated inputs above a limit
// are not run, so the fuzzer cannot wander into runs of minutes.
func nestedWork(query, doc string) float64 {
	nodes := strings.Count(doc, "<") + strings.Count(doc, ":") + strings.Count(doc, ",")
	return math.Pow(float64(nodes), float64(len(loopKeyword.FindAllString(query, -1))))
}

// FuzzSkipParity checks the one dead test against full tokenization.
// The default plan skips dead subtrees; the same query without skipping
// and the DOM oracle tokenize every byte. On the byte backing and on a
// reader that returns one byte per Read, all three must give the same
// output and the same error class. The one exception is the raw scan's
// superset dialect inside a dead subtree (DESIGN.md §7): where the full
// runs report an error, a skipping run may succeed instead. Queries that
// do not compile are not run.
func FuzzSkipParity(f *testing.F) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 2 << 10, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range xmark.QueryIDs() {
		f.Add(xmark.Queries[id].Text, doc)
	}
	for i := int64(0); i < 16; i++ {
		f.Add(xqgen.Query(rand.New(rand.NewSource(i)), xqgen.DefaultOptions()),
			xqgen.Document(rand.New(rand.NewSource(i*31+7))))
	}
	f.Add(latchQuery, latchDoc)
	f.Add(chainQuery, chainDoc)
	// Stream-through output over items nested two deep and empty
	// elements written both ways (DESIGN.md §3).
	f.Add(queryE1, nestedItems)
	f.Add(`<r>{ for $i in /site//item return (<i>{ $i/name }</i>, $i/e) }</r>`, nestedItems)
	f.Fuzz(func(t *testing.T, query, doc string) {
		if len(query) > 1<<10 || len(doc) > 8<<10 || nestedWork(query, doc) > 1e6 {
			return
		}
		q, err := gcx.Compile(query)
		if err != nil {
			return
		}
		type outcome struct{ out, class string }
		run := func(q *gcx.Query, opts gcx.Options, oneByte bool) outcome {
			var out strings.Builder
			var err error
			if oneByte {
				_, err = q.Execute(iotest.OneByteReader(strings.NewReader(doc)), &out, opts)
			} else {
				_, err = q.ExecuteBytes([]byte(doc), &out, opts)
			}
			if err != nil {
				return outcome{class: errClass(err)}
			}
			return outcome{out.String(), "ok"}
		}
		want := run(gcx.WithoutSkip(q), gcx.Options{}, false)
		for _, backing := range []struct {
			name    string
			oneByte bool
		}{{"bytes", false}, {"one-byte reader", true}} {
			for _, ref := range []struct {
				name string
				got  outcome
			}{
				{"without skip", run(gcx.WithoutSkip(q), gcx.Options{}, backing.oneByte)},
				{"DOM", run(q, gcx.Options{Engine: gcx.EngineDOM}, backing.oneByte)},
			} {
				if ref.got != want {
					t.Fatalf("%s, %s: %+v, without skip on bytes: %+v\nquery: %s\ndoc: %s", ref.name, backing.name, ref.got, want, query, doc)
				}
			}
			got := run(q, gcx.Options{}, backing.oneByte)
			if got != want && (want.class == "ok" || got.class != "ok") {
				t.Fatalf("skipping, %s: %+v, without skip: %+v\nquery: %s\ndoc: %s", backing.name, got, want, query, doc)
			}
		}
	})
}
