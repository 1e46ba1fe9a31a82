package xmark

// NDJSON companion workload (DESIGN.md §8): an auction *event log* —
// the same domain as the XML documents, reshaped as one bid record per
// line, which is what the JSON front end's virtual /root/record
// document looks like. The generator is deterministic under Config.Seed
// and byte-size-targeted like Generate, so gcxperf's ndjson-filter
// workload is comparable with the XMark XML ones.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// NDJSONQueries is the catalog of benchmark queries over the NDJSON bid
// log, keyed J1, J2, … in the style of the XMark Q numbers. All three
// are wrapperless single-loop queries over /root/record, so they are
// NDJSON-shardable (newline record boundaries) as well as streamable.
var NDJSONQueries = map[string]Query{
	"J1": {
		ID:          "J1",
		Description: "Amounts of the bids placed by bidder person0 (filter + project).",
		Text:        `for $r in /root/record return if ($r/bidder = "person0") then $r/amount else ()`,
	},
	"J2": {
		ID:          "J2",
		Description: "Name of every bid's item (projection past the bulky item payload — skipping-heavy).",
		Text:        `for $r in /root/record return $r/item/name`,
	},
	"J3": {
		ID:          "J3",
		Description: "Sellers of bids without a reserve price (existence condition).",
		Text:        `for $r in /root/record return if (not(exists $r/reserve)) then $r/seller else ()`,
	},
}

// bidsPerUnit approximates how many bid records fit one generation unit
// (~1 MiB); calibrated against the generator itself like bytesPerUnit.
const bidsPerUnit = 2150

// GenerateNDJSON writes one bid-log stream to w — one JSON record per
// line — and returns statistics (Bytes and Items, the record count).
func GenerateNDJSON(w io.Writer, cfg Config) (*Stats, error) {
	if cfg.TargetBytes <= 0 {
		cfg.TargetBytes = 1 << 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cw := &countingWriter{w: bufio.NewWriterSize(w, 64<<10)}
	r := rand.New(rand.NewSource(cfg.Seed))
	st := &Stats{}
	const bytesPerBid = 488 // calibrated; see TestGenerateNDJSONSizeTargeting
	bids := int(float64(cfg.TargetBytes)/bytesPerBid + 0.5)
	if bids < 1 {
		bids = 1
	}
	word := func() string { return words[r.Intn(len(words))] }
	phrase := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = word()
		}
		return strings.Join(parts, " ")
	}
	for i := 0; i < bids; i++ {
		itemName := word() + " " + word()
		fmt.Fprintf(cw, `{"auction":"open_auction%d","bidder":"person%d","seller":"person%d","amount":"%d.%02d"`,
			r.Intn(bids/8+1), r.Intn(bids/2+1), r.Intn(bids/2+1), 1+r.Intn(400), r.Intn(100))
		if r.Intn(3) != 0 {
			fmt.Fprintf(cw, `,"reserve":"%d.00"`, 50+r.Intn(300))
		}
		// The bulky payload queries like J2 project into (name) or past
		// (description, shipping) — the skipping opportunity.
		fmt.Fprintf(cw, `,"item":{"name":"%s","category":"category%d","payment":"Creditcard","description":"%s","shipping":["%s","%s"]}}`,
			itemName, r.Intn(50), phrase(40), phrase(2), phrase(2))
		io.WriteString(cw, "\n")
		st.Items++
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		return nil, err
	}
	if cw.err != nil {
		return nil, cw.err
	}
	st.Bytes = cw.n
	return st, nil
}

// GenerateNDJSONString renders a bid log in memory (tests).
func GenerateNDJSONString(cfg Config) (string, *Stats, error) {
	var b strings.Builder
	st, err := GenerateNDJSON(&b, cfg)
	return b.String(), st, err
}
