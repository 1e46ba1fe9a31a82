package gcx_test

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"gcx"
	"gcx/internal/event"
	"gcx/internal/jsontok"
	"gcx/internal/xmark"
	"gcx/internal/xmltok"
)

// renderNDJSONAsXML materializes the JSON front end's tree mapping
// (DESIGN.md §8) as a concrete XML document: the corpus tokenized by
// jsontok, re-serialized by xmltok. Queries see the identical tree
// through either syntax, which is what the differential tests pin.
func renderNDJSONAsXML(t *testing.T, ndjson string) string {
	t.Helper()
	tk := jsontok.NewTokenizer(strings.NewReader(ndjson))
	defer tk.Release()
	var b strings.Builder
	sk := xmltok.NewSerializer(&b)
	defer sk.Release()
	for {
		tok, err := tk.Next()
		if err != nil {
			break
		}
		switch tok.Kind {
		case event.StartElement:
			sk.StartElement(tok.Name, tok.Attrs)
		case event.EndElement:
			sk.EndElement(tok.Name)
		case event.Text:
			sk.Text(tok.Text)
		}
	}
	if err := sk.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// xmlForestToJSON re-serializes an XML query result (a forest of
// top-level result elements) through the JSON sink by tokenizing it
// under a synthetic wrapper element that is not forwarded. The result
// is what the same query run would have emitted on the JSON path.
func xmlForestToJSON(t *testing.T, xmlOut string) string {
	t.Helper()
	tk := xmltok.NewTokenizer(strings.NewReader("<forest>" + xmlOut + "</forest>"))
	defer tk.Release()
	var b strings.Builder
	sk := jsontok.NewSerializer(&b)
	defer sk.Release()
	depth := 0
	for {
		tok, err := tk.Next()
		if err != nil {
			break
		}
		switch tok.Kind {
		case event.StartElement:
			if depth > 0 {
				sk.StartElement(tok.Name, tok.Attrs)
			}
			depth++
		case event.EndElement:
			depth--
			if depth > 0 {
				sk.EndElement(tok.Name)
			}
		case event.Text:
			if depth > 1 {
				sk.Text(tok.Text)
			}
		}
	}
	if err := sk.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestNDJSONDifferentialXML is the format-neutrality property of the
// event layer: a query run over an NDJSON corpus and the same query run
// over the corpus's XML rendering must produce equivalent results —
// byte-identical once the XML result forest is mapped back through the
// JSON serializer.
func TestNDJSONDifferentialXML(t *testing.T) {
	nd, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 128 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	xmlDoc := renderNDJSONAsXML(t, nd)
	for qid, entry := range xmark.NDJSONQueries {
		q := gcx.MustCompile(entry.Text)
		jout, jres, err := q.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON})
		if err != nil {
			t.Fatalf("%s ndjson: %v", qid, err)
		}
		xout, _, err := q.ExecuteString(xmlDoc, gcx.Options{Format: gcx.FormatXML})
		if err != nil {
			t.Fatalf("%s xml: %v", qid, err)
		}
		if got := xmlForestToJSON(t, xout); got != jout {
			t.Errorf("%s: XML and NDJSON runs diverge\n  json: %.200q\n  xml→: %.200q", qid, jout, got)
		}
		if jres.TokensProcessed == 0 {
			t.Errorf("%s: no tokens consumed on the JSON path?", qid)
		}
	}
}

// TestNDJSONDifferentialAutoSniff: FormatAuto resolves the two corpora
// to the right tokenizers (first non-whitespace byte), so the same
// differential property holds without an explicit format.
func TestNDJSONDifferentialAutoSniff(t *testing.T) {
	nd, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 16 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	xmlDoc := renderNDJSONAsXML(t, nd)
	q := gcx.MustCompile(xmark.NDJSONQueries["J2"].Text)
	jout, _, err := q.ExecuteString(nd, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	xout, _, err := q.ExecuteString(xmlDoc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := xmlForestToJSON(t, xout); got != jout {
		t.Fatalf("auto-sniffed runs diverge\n  json: %.200q\n  xml→: %.200q", jout, got)
	}
}

// TestNDJSONShardedByteIdentity: the sharded NDJSON path (line-boundary
// splitter + per-chunk engines) is byte-identical to the sequential one
// at shards ∈ {2, 4, 8}, because JSON results carry no cross-item state.
func TestNDJSONShardedByteIdentity(t *testing.T) {
	nd, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 256 << 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for qid, entry := range xmark.NDJSONQueries {
		q := gcx.MustCompile(entry.Text)
		want, _, err := q.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4, 8} {
			got, res, err := q.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON, Shards: n})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", qid, n, err)
			}
			if got != want {
				t.Fatalf("%s shards=%d: output differs from sequential", qid, n)
			}
			if res.ShardsUsed != n {
				t.Fatalf("%s shards=%d: ShardsUsed = %d", qid, n, res.ShardsUsed)
			}
			if res.Chunks == 0 {
				t.Fatalf("%s shards=%d: no chunks reported", qid, n)
			}
		}
	}
}

// TestNDJSONShardFallbacks: plain JSON (no line framing to split on)
// and wrapper-producing queries run sequentially even when Shards is
// set, without changing the output.
func TestNDJSONShardFallbacks(t *testing.T) {
	nd, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 32 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// The same stream under FormatJSON: record boundaries are unknown,
	// so the run must fall back to one engine.
	q := gcx.MustCompile(xmark.NDJSONQueries["J1"].Text)
	want, _, err := q.ExecuteString(nd, gcx.Options{Format: gcx.FormatJSON})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := q.ExecuteString(nd, gcx.Options{Format: gcx.FormatJSON, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || res.ShardsUsed != 1 {
		t.Fatalf("FormatJSON fallback broken: used=%d identical=%v", res.ShardsUsed, got == want)
	}

	// A constant element wrapper is XML syntax in the output; the JSON
	// serializer cannot split it across workers, so NDJSON runs of such
	// queries stay sequential.
	wq := gcx.MustCompile(`<out>{ for $r in /root/record return $r/amount }</out>`)
	want, _, err = wq.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err = wq.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || res.ShardsUsed != 1 {
		t.Fatalf("wrapper fallback broken: used=%d identical=%v", res.ShardsUsed, got == want)
	}
	if !strings.Contains(wq.Explain(), "ndjson: sequential only") {
		t.Fatalf("Explain missing the NDJSON verdict:\n%s", wq.Explain())
	}
	if !strings.Contains(q.Explain(), "ndjson: eligible") {
		t.Fatalf("Explain missing NDJSON eligibility:\n%s", q.Explain())
	}
}

// TestNDJSONSkipCounters: byte-level subtree skipping works through the
// JSON tokenizer — J1 touches only bidder and amount, so the bulky item
// subtree of every record is fast-forwarded at byte level.
func TestNDJSONSkipCounters(t *testing.T) {
	nd, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 64 << 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.NDJSONQueries["J1"].Text)
	_, res, err := q.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubtreesSkipped == 0 || res.BytesSkipped == 0 {
		t.Fatalf("no skipping on the JSON path: subtrees=%d bytes=%d", res.SubtreesSkipped, res.BytesSkipped)
	}
	// Sharded runs aggregate the same counters across workers.
	_, sres, err := q.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sres.SubtreesSkipped == 0 || sres.BytesSkipped == 0 {
		t.Fatalf("no skip counters from sharded run: subtrees=%d bytes=%d", sres.SubtreesSkipped, sres.BytesSkipped)
	}
	// J2 descends into the item object, so its skips are scalar-valued
	// members. Scalars parse lazily, so even these count raw bytes.
	q2 := gcx.MustCompile(xmark.NDJSONQueries["J2"].Text)
	_, res2, err := q2.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON})
	if err != nil {
		t.Fatal(err)
	}
	if res2.SubtreesSkipped == 0 || res2.BytesSkipped == 0 {
		t.Fatalf("scalar-level skips count no bytes: subtrees=%d bytes=%d", res2.SubtreesSkipped, res2.BytesSkipped)
	}
}

// TestNDJSONShardedBlankLines: a sharded NDJSON run fails wherever the
// sequential run fails, and succeeds with the same output wherever it
// succeeds. A line of whitespace the JSON tokenizer does not accept —
// form feed, vertical tab, U+0085, U+00A0 — is a syntax error in one
// engine and in N, on every backing; so is a long span of such lines
// that starts exactly at a chunk boundary. Lines of the tokenizer's own
// whitespace are nothing in either.
func TestNDJSONShardedBlankLines(t *testing.T) {
	q := gcx.MustCompile(`for $r in /root/record return $r/a`)
	inputs := map[string]string{}
	for name, blank := range map[string]string{
		"ff": "\f", "vt": "\v", "nel": "\u0085", "nbsp": "\u00a0",
		"space": " ", "tab-cr": "\t\r", "empty": "",
	} {
		inputs[name] = "{\"a\":1}\n" + blank + "\n{\"a\":2}\n"
		// 64 KiB of records fill the first chunk exactly; the blank
		// lines then make up the whole second chunk.
		inputs[name+"-chunk"] = strings.Repeat("{\"a\":1}\n", 8192) + strings.Repeat(blank+"\n", 32768) + "{\"a\":2}\n"
	}
	fails := map[string]bool{"ff": true, "vt": true, "nel": true, "nbsp": true}

	backings := map[string]func(doc string, out *strings.Builder, opts gcx.Options) error{
		"bytes": func(doc string, out *strings.Builder, opts gcx.Options) error {
			_, err := q.ExecuteBytes([]byte(doc), out, opts)
			return err
		},
		"reader": func(doc string, out *strings.Builder, opts gcx.Options) error {
			_, err := q.Execute(strings.NewReader(doc), out, opts)
			return err
		},
		"one-byte": func(doc string, out *strings.Builder, opts gcx.Options) error {
			_, err := q.Execute(iotest.OneByteReader(strings.NewReader(doc)), out, opts)
			return err
		},
	}
	for name, doc := range inputs {
		for bname, run := range backings {
			var want, got strings.Builder
			wantErr := run(doc, &want, gcx.Options{Format: gcx.FormatNDJSON})
			gotErr := run(doc, &got, gcx.Options{Format: gcx.FormatNDJSON, Shards: 2})
			class := "ok"
			if fails[strings.TrimSuffix(name, "-chunk")] {
				class = "syntax"
			}
			if errClass(wantErr) != class {
				t.Fatalf("%s/%s: the sequential run gives %v, want class %s", name, bname, wantErr, class)
			}
			if errClass(gotErr) != class {
				t.Errorf("%s/%s: sharded run gives %v, sequential %v", name, bname, gotErr, wantErr)
			}
			// Output is compared only for complete runs: how much of it a
			// failed run has written depends on which chunks finished.
			if class == "ok" && got.String() != want.String() {
				t.Errorf("%s/%s: sharded output differs from sequential", name, bname)
			}
		}
	}
}

// TestNDJSONShardedErrorOffset: a sharded NDJSON run reports a worker's
// syntax error at its input offset, as the sequential run does — chunks
// are the input verbatim, so the chunk's start offset rebases it
// exactly (DESIGN.md §6). Before, `Shards: 2` said byte 4469 where the
// sequential run said 70005.
func TestNDJSONShardedErrorOffset(t *testing.T) {
	q := gcx.MustCompile(`for $r in /*/record return $r/a`)
	doc := strings.Repeat(`{"a":1}`+"\n", 8750) + `{"a":}` + "\n" + `{"a":2}` + "\n"
	for _, c := range []struct {
		name string
		run  func(opts gcx.Options) error
	}{
		{"bytes", func(opts gcx.Options) error {
			_, err := q.ExecuteBytes([]byte(doc), io.Discard, opts)
			return err
		}},
		{"reader", func(opts gcx.Options) error {
			_, err := q.Execute(strings.NewReader(doc), io.Discard, opts)
			return err
		}},
		{"one-byte", func(opts gcx.Options) error {
			_, err := q.Execute(iotest.OneByteReader(strings.NewReader(doc)), io.Discard, opts)
			return err
		}},
	} {
		want := c.run(gcx.Options{Format: gcx.FormatNDJSON})
		if want == nil || !strings.Contains(want.Error(), "byte 70005") {
			t.Fatalf("%s: the sequential run gives %v, want a syntax error at byte 70005", c.name, want)
		}
		for _, shards := range []int{2, 4} {
			got := c.run(gcx.Options{Format: gcx.FormatNDJSON, Shards: shards})
			if got == nil || got.Error() != want.Error() {
				t.Errorf("%s at %d shards: %v, sequential: %v", c.name, shards, got, want)
			}
		}
	}
}

// TestNDJSONSpanningRecord pins what happens to a record that spans
// lines, which breaks FormatNDJSON's one-record-per-line promise
// (DESIGN.md §8): the sequential run reads it whole, and a sharded run,
// whose 64 KiB cut falls inside it, fails with a syntax error at an
// offset inside the record, counted from the start of the input.
func TestNDJSONSpanningRecord(t *testing.T) {
	q := gcx.MustCompile(`for $r in /root/record return $r/a`)
	head := strings.Repeat(`{"a":1}`+"\n", 65528/8)
	doc := head + "{\"a\":\n\n\n2}\n"
	if _, _, err := q.ExecuteString(doc, gcx.Options{Format: gcx.FormatNDJSON}); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	_, _, err := q.ExecuteString(doc, gcx.Options{Format: gcx.FormatNDJSON, Shards: 2})
	var se *jsontok.SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("2 shards: %v, want a *jsontok.SyntaxError", err)
	}
	t.Logf("2 shards: %v", err)
	if se.Offset < int64(len(head)) || se.Offset > int64(len(doc)) {
		t.Errorf("2 shards: %v at byte %d, want an offset inside the record at bytes %d–%d", err, se.Offset, len(head), len(doc))
	}
}
