package gcx_test

// FuzzStreamBound fuzzes the streamability contract itself: for random
// well-formed queries and random documents, a statically-Unbounded
// verdict must make strict compilation reject, and a bounded verdict
// must make the runtime watermark respect the static node budget. The
// generator is biased toward single-root-loop pipelines so both sides
// of the contract are exercised. xqgen's records stay far under the
// bound's constant term, so grow enlarges one record and repeats it
// beside itself: with two records of thousands of nodes in flight, a
// record factor below two shows.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/analysis"
	"gcx/internal/core"
	"gcx/internal/dom"
	"gcx/internal/event"
	"gcx/internal/xpath"
	"gcx/internal/xqgen"
)

func FuzzStreamBound(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(i, i*31+7, uint16(0))
	}
	// Bounded pipelines whose peak is about one grown record: per-record
	// (36, 92, 119, 141) and constant (69, 157) verdicts. They fail a
	// record factor of 0.
	for _, i := range []int64{36, 69, 92, 119, 141, 157} {
		f.Add(i, i*31+7, uint16(1000))
	}
	// Two sibling records of /root/descendant::c/c in flight at once
	// peak at 1 495 nodes, over 296 + 1·1 144: it fails a record factor
	// of 1.
	f.Add(int64(-566), int64(1907), uint16(381))
	f.Fuzz(func(t *testing.T, qseed, dseed int64, grow uint16) {
		opts := xqgen.DefaultOptions()
		opts.SingleRootLoop = true
		src := xqgen.Query(rand.New(rand.NewSource(qseed)), opts)
		doc := xqgen.Document(rand.New(rand.NewSource(dseed)))

		plan, err := core.CompileWithOptions(src, analysis.Options{})
		if err != nil {
			t.Fatalf("generated query does not compile: %v\n%s", err, src)
		}
		st := plan.Stream

		_, strictErr := gcx.CompileWithOptions(src, gcx.CompileOptions{StrictStreaming: true})
		if st.Class == analysis.Unbounded {
			if strictErr == nil {
				t.Fatalf("strict compile accepted a statically unbounded query (%s)\n%s", st.Reason, src)
			}
			return
		}
		if strictErr != nil {
			t.Fatalf("strict compile rejected a bounded query (%v)\n%s", strictErr, src)
		}

		// Measure the record term on the materialized document; a record
		// path that matches nothing contributes zero.
		var rec int64
		if !st.Bound.RecordPath.IsEmpty() {
			d := parseDOM(t, doc, gcx.FormatXML)
			if growRecord(d, st.Bound.RecordPath, int(grow)%2048) {
				var b bytes.Buffer
				sink, err := core.NewSink(gcx.FormatXML, &b)
				if err != nil {
					t.Fatal(err)
				}
				dom.Serialize(d.Root, sink)
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				sink.Release()
				doc = b.String()
			}
			rec = largestRecord(d, st.Bound.RecordPath)
		}
		bound := st.Bound.Eval(rec)

		q, err := gcx.CompileWithOptions(src, gcx.CompileOptions{})
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		res, err := q.ExecuteContext(context.Background(), strings.NewReader(doc), io.Discard, gcx.Options{})
		if err != nil {
			t.Fatalf("execute: %v\nquery: %s\ndoc: %s", err, src, doc)
		}
		if res.PeakBufferedNodes > bound {
			t.Errorf("peak %d exceeds static bound %d (%s, class %s, record %d)\nquery: %s\ndoc: %s",
				res.PeakBufferedNodes, bound, st.Bound, st.Class, rec, src, doc)
		}
	})
}

// growRecord appends units of three nodes to the first record of d,
// one element per name of the generator's alphabet in turn, each with
// an attribute and a child element holding text, so that any path of
// the generated queries finds matches in it. The grown record is then
// repeated as its own next sibling, where the same record path matches
// it again. It reports whether d changed.
func growRecord(d *dom.Document, recPath xpath.Path, units int) bool {
	recs := dom.Select(d.Root, recPath)
	if units == 0 || len(recs) == 0 {
		return false
	}
	r := recs[0]
	for i := 0; i < units; i++ {
		name := xqgen.Names[i%len(xqgen.Names)]
		n := &dom.Node{Kind: dom.Element, Name: name, Parent: r,
			Attrs: []event.Attr{{Name: "id", Value: strconv.Itoa(i % 5)}}}
		c := &dom.Node{Kind: dom.Element, Name: xqgen.Names[(i/len(xqgen.Names))%len(xqgen.Names)], Parent: n}
		c.Children = []*dom.Node{{Kind: dom.Text, Text: "t" + strconv.Itoa(i%10), Parent: c}}
		n.Children = []*dom.Node{c}
		r.Children = append(r.Children, n)
	}
	if p := r.Parent; p.Kind == dom.Element {
		i := slices.Index(p.Children, r)
		p.Children = slices.Insert(p.Children, i+1, r)
	}
	return true
}
