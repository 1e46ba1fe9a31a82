package gcx_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"gcx"
	"gcx/internal/core"
	"gcx/internal/xmark"
	"gcx/internal/xqgen"
)

// TestJoinKeysReleasedAtClose: the join operator takes each build
// tuple's keys and payload into its table at the tuple's close and
// signs every node of it off there (DESIGN.md §10), so Q8 and Q9 hold
// no build tuple past its close: their peak is a constant, the same at
// 1 and 4 MiB on both backings. The runs balance, leave nothing
// buffered and, at 1 MiB, write what the nested-loop plan writes.
func TestJoinKeysReleasedAtClose(t *testing.T) {
	const limit = 6
	for _, id := range []string{"Q8", "Q9"} {
		plan, err := core.Compile(xmark.Queries[id].Text)
		if err != nil {
			t.Fatal(err)
		}
		peak := int64(-1)
		for _, size := range []int64{1 << 20, 4 << 20} {
			doc := []byte(xmarkDoc(t, size))
			want := ""
			if size == 1<<20 {
				nested := *plan
				nested.Join = nil
				want, _ = runBalanced(t, &nested, core.FormatXML, doc, nil)
			}
			for _, r := range []func() io.Reader{nil, func() io.Reader { return bytes.NewReader(doc) }} {
				got, res := runBalanced(t, plan, core.FormatXML, doc, r)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s at %d bytes (reader %v): output differs", id, size, r != nil)
				}
				t.Logf("%s at %d bytes (reader %v): peak %d over %d build tuples",
					id, size, r != nil, res.PeakBufferedNodes, res.JoinBuildTuples)
				if res.JoinBuildTuples == 0 || res.PeakBufferedNodes > limit {
					t.Errorf("%s at %d bytes (reader %v): peak %d over %d build tuples, want at most %d",
						id, size, r != nil, res.PeakBufferedNodes, res.JoinBuildTuples, limit)
				}
				if peak >= 0 && res.PeakBufferedNodes != peak {
					t.Errorf("%s at %d bytes (reader %v): peak %d, %d on the first run",
						id, size, r != nil, res.PeakBufferedNodes, peak)
				}
				peak = res.PeakBufferedNodes
			}
		}
	}
}

// TestJoinFaultsLeavePoolsClean cancels a join run, and breaches its
// node budget, at every build tuple of a small document in each layout,
// then runs the query to completion on the same pools — engines, buffers,
// tokenizers — on both backings: every good run balances, leaves no
// node buffered and writes the expected bytes.
func TestJoinFaultsLeavePoolsClean(t *testing.T) {
	const src = `<out>{ for $p in /root/ps/p return <m>{ $p/n, for $b in /root/bs/b return if ($b/k = $p/k) then $b/v else () }</m> }</out>`
	q := gcx.MustCompile(src)
	plan, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range xqgen.JoinLayouts {
		doc := xqgen.JoinDocument(rand.New(rand.NewSource(3)), 6, 8, layout)
		want, res, err := q.ExecuteString(doc, gcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		good := func(fault string) {
			t.Helper()
			for _, r := range []func() io.Reader{nil, func() io.Reader { return strings.NewReader(doc) }} {
				if got, _ := runBalanced(t, plan, core.FormatXML, []byte(doc), r); got != want {
					t.Fatalf("%s, after %s: output %q, want %q", layout, fault, got, want)
				}
			}
		}

		for i, at := 0, 0; ; i++ {
			end := strings.Index(doc[at:], "</b>")
			if end < 0 {
				break
			}
			at += end + len("</b>")
			ctx, cancel := context.WithCancel(context.Background())
			in := &cancelAfter{r: iotest.OneByteReader(strings.NewReader(doc)), n: at, cancel: cancel}
			_, err := q.ExecuteContext(ctx, in, io.Discard, gcx.Options{})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled at build tuple %d: got %v", layout, i, err)
			}
			good(fmt.Sprintf("a cancel at build tuple %d", i))
		}

		for budget := int64(1); budget < res.PeakBufferedNodes; budget++ {
			_, _, err := q.ExecuteString(doc, gcx.Options{MaxBufferedNodes: budget})
			if !errors.Is(err, gcx.ErrBufferBudget) {
				t.Fatalf("%s: budget %d below the peak %d: got %v", layout, budget, res.PeakBufferedNodes, err)
			}
			good(fmt.Sprintf("a breach of budget %d", budget))
		}
	}
}
