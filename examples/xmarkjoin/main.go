// xmarkjoin runs the paper's Figure 4(b) query, the value-based join
// XMark Q8, and charts what it holds over the stream. In the paper the
// join partners stay in the buffer, so its node count grows with the
// input. Here the streaming hash join (DESIGN.md §10) captures each
// person's key and output as the probe side streams past, and puts
// each closed auction's key and payload into its table at the
// auction's close, signing its nodes off there. So the buffer's node
// count stays constant, and what grows is the join's memory: the
// series' byte column and PeakBufferedBytes count it with the buffer.
package main

import (
	"fmt"
	"log"

	"gcx"
	"gcx/internal/xmark"
)

func main() {
	const target = 2 << 20
	doc, st, err := xmark.GenerateString(xmark.Config{TargetBytes: target, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("document: %d bytes, %d persons, %d closed auctions\n\n",
		st.Bytes, st.Persons, st.ClosedAuctions)

	q, err := gcx.Compile(xmark.Queries["Q8"].Text)
	if err != nil {
		log.Fatal(err)
	}
	_, res, err := q.ExecuteString(doc, gcx.Options{RecordEvery: 250})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("memory held over the stream (buffer and join table, Fig. 4(b)'s query):")
	step := max(len(res.Series)/24, 1)
	peak := res.PeakBufferedBytes
	var maxNodes int64
	for i, p := range res.Series {
		maxNodes = max(maxNodes, p.Nodes)
		if i%step != 0 {
			continue
		}
		bar := int(float64(p.Bytes) / float64(peak) * 50)
		fmt.Printf("%7d tokens |%-50s| %7.1f KB %2d nodes\n", p.Token, repeat('█', bar), float64(p.Bytes)/1024, p.Nodes)
	}
	fmt.Printf("\n%d tokens delivered; %d probe tuples captured, %d build tuples in the table, %d matches.\n",
		res.TokensProcessed, res.JoinProbeTuples, res.JoinBuildTuples, res.JoinMatches)
	fmt.Printf("peak: %d nodes buffered, %.1f KB held; final: %d nodes.\n",
		res.PeakBufferedNodes, float64(res.PeakBufferedBytes)/1024, res.FinalBufferedNodes)
	fmt.Printf("No sample held more than %d nodes: no join partner is parked in the\n", maxNodes)
	fmt.Println("buffer. The bytes grow because the join keeps every captured person and")
	fmt.Println("build tuple to the end: its memory is linear in the input, the buffer constant.")
}

func repeat(r rune, n int) string {
	if n < 0 {
		n = 0
	}
	out := make([]rune, n)
	for i := range out {
		out[i] = r
	}
	return string(out)
}
