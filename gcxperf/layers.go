package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"gcx"
	rawsplit "gcx/gcxperf/_rawsplit"
	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/core"
	"gcx/internal/cursor"
	"gcx/internal/event"
	"gcx/internal/join"
	"gcx/internal/projection"
)

// traceResult is one workload's traced pass: every per-layer metric,
// and the spans behind the ones that come from spans.
type traceResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Spans     []span             `json:"-"`
}

// probeReps is how often each layer probe runs; the fastest is reported.
const probeReps = 5

// traceWorkload is the traced pass on the same inputs as the end-to-end
// pass: windows with tracing off and on in turn (their difference is
// the tracing overhead), then each layer called on its own from outside.
func traceWorkload(w workload, cfg config) (*traceResult, error) {
	in, err := setUp(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	tr := &traceResult{Metrics: map[string]float64{}}
	m := tr.Metrics
	fail := func(err error) {
		tr.Failed++
		tr.Failures = append(tr.Failures, err.Error())
	}
	tr.Attempted++
	if _, err := in.verify(); err != nil {
		fail(fmt.Errorf("verification: %w", err))
	}

	rec := newRecorder()
	in.window(cfg.Window/4, nil)
	var plain, traced []float64 // operation times, ms
	phases := map[string][]float64{}
	for range 2 {
		for _, r := range []*recorder{nil, rec} {
			st := in.window(cfg.Window/4, r)
			if r == nil {
				plain = append(plain, st.lat...)
			} else {
				traced = append(traced, st.lat...)
			}
			for k, v := range st.phases {
				phases[k] = append(phases[k], v...)
			}
			tr.Attempted += len(st.lat) + st.failed
			tr.Failed += st.failed
			tr.Failures = append(tr.Failures, st.failures...)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return tr, fmt.Errorf("no operation completed in a %v window", cfg.Window/4)
	}
	m["trace.overhead_pct"] = 100 * (p10(traced)/p10(plain) - 1)
	phase := func(layer string) float64 { return median(phases[layer]) }
	m["engine.stream_ms"] = phase("engine.stream")
	m["engine.eval_ms"] = phase("engine.eval")
	m["join.build_ms"] = phase("join.build")
	m["join.probe_ms"] = phase("join.probe")
	m["core.setup_us"] = 1000 * phase("core.setup")

	// Self times: an operation's root keeps what no child span covers.
	// On a library workload that is the unattributed remainder; on a
	// serving workload it is the HTTP transport around the handler, and
	// the handler's own self time is gcxd's cost around the engine.
	tr.Spans = rec.spans
	self := selfTimes(tr.Spans)
	var wall, rootSelf int64
	var transport, overhead []float64
	for _, s := range tr.Spans {
		switch {
		case s.Parent == 0 && s.End > 0:
			wall += s.End - s.Start
			rootSelf += self[s.ID]
			transport = append(transport, float64(self[s.ID])/1e6)
		case s.Name == "gcxd.handler":
			overhead = append(overhead, float64(self[s.ID])/1e6)
		}
	}
	m["trace.attributed_pct"] = 100 * (1 - float64(rootSelf)/float64(wall))
	m["gcxd.transport_ms"], m["gcxd.overhead_ms"] = 0, 0
	if w.Serve {
		m["gcxd.transport_ms"], m["gcxd.overhead_ms"] = median(transport), median(overhead)
	}

	p, err := newProber(in)
	if err != nil {
		return tr, err
	}
	p.fail = fail
	p.run(m)
	tr.Attempted += p.attempted

	for k, v := range counts(in, opResult{}) {
		switch k {
		case "peak_bytes":
			m["buffer.peak_bytes"] = float64(v)
		default:
			m["count."+k] = float64(v)
		}
	}
	m["count.skip_ratio"] = float64(in.ref.BytesSkipped) / float64(len(in.doc))
	m["count.cache_hits"], m["count.cache_misses"] = 0, 0
	if w.Serve {
		snap := in.gcxd.Registry().Snapshot()
		m["count.cache_hits"], m["count.cache_misses"] = float64(snap["cache_hits"]), float64(snap["cache_misses"])
	}
	m["analysis.bound_slack"] = 0
	if b := in.q.Report().StaticBound; b != nil && b.ConstNodes > 0 {
		// Every bound in the catalog has a record-sized term besides the
		// constant one, so this is the peak against the constant alone:
		// an upper bound on the true slack.
		m["analysis.bound_slack"] = float64(in.ref.PeakBufferedNodes) / float64(b.ConstNodes)
	}
	return tr, in.close()
}

// prober calls single layers on the workload's input, from outside.
type prober struct {
	in        *instance
	format    core.Format
	plan      *analysis.Plan
	info      *analysis.ShardInfo // nil when the query cannot be partitioned
	seq       gcx.Options         // the workload's options on the sequential engine
	fail      func(error)
	attempted int
}

func newProber(in *instance) (*prober, error) {
	plan, err := core.Compile(in.w.Query)
	if err != nil {
		return nil, fmt.Errorf("compile plan: %w", err)
	}
	p := &prober{in: in, plan: plan, format: core.FormatXML, seq: in.opts}
	p.seq.Shards = 0
	if in.w.NDJSON {
		p.format = core.FormatNDJSON
	}
	p.info, _ = analysis.Shardable(plan)
	if p.info != nil && in.w.NDJSON && analysis.NDJSONShardable(p.info) != "" {
		p.info = nil
	}
	return p, nil
}

// try calls f once and counts it; a failure is reported.
func (p *prober) try(what string, f func() error) bool {
	p.attempted++
	if err := f(); err != nil {
		p.fail(fmt.Errorf("%s: %w", what, err))
		return false
	}
	return true
}

// timed reports the shortest wall time of f over probeReps calls:
// whatever else ran on the machine can only have added to the others.
func (p *prober) timed(what string, f func() error) time.Duration {
	var best time.Duration
	for range probeReps {
		t0 := time.Now()
		if ok := p.try(what, f); ok {
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
	}
	return best
}

func (p *prober) run(m map[string]float64) {
	doc := p.in.doc
	n := len(doc)

	delim := byte('<')
	if p.in.w.NDJSON {
		delim = '"'
	}
	m["cursor.scan_mbps"] = mibPerSec(n, p.timed("cursor scan", func() error {
		c := cursor.NewBytes(doc)
		for {
			if _, err := c.SkipPast(delim); err != nil {
				return eofIsNil(err)
			}
		}
	}))

	var tokens int64
	tokenAll := p.timed("tokenizer", func() error {
		src, err := core.NewSourceBytes(p.format, doc)
		if err != nil {
			return err
		}
		defer src.Release()
		for {
			if _, err := src.Next(); err != nil {
				tokens = src.TokenCount()
				return eofIsNil(err)
			}
		}
	})
	m["tokenizer.token_mbps"] = mibPerSec(n, tokenAll)

	// Skip every child of the root: the six XMark sections, or each
	// NDJSON record.
	m["tokenizer.skip_mbps"] = mibPerSec(n, p.timed("tokenizer skip", func() error {
		src, err := core.NewSourceBytes(p.format, doc)
		if err != nil {
			return err
		}
		defer src.Release()
		depth := 0
		for {
			t, err := src.Next()
			if err != nil {
				return eofIsNil(err)
			}
			switch t.Kind {
			case event.StartElement:
				if depth == 1 {
					if err := src.SkipSubtree(); err != nil {
						return err
					}
				} else {
					depth++
				}
			case event.EndElement:
				depth--
			}
		}
	}))

	m["serializer.serialize_mbps"] = p.serialize()

	project := func(skip bool) func() error {
		return func() error {
			src, err := core.NewSourceBytes(p.format, doc)
			if err != nil {
				return err
			}
			defer src.Release()
			buf := buffer.New()
			defer buf.Release()
			pp := projection.New(src, buf, p.plan.RolePaths())
			if skip {
				pp.EnableSkipping(p.plan.Automaton)
			}
			return pp.Run()
		}
	}
	// Without skipping the preprojector sees every token, so its own
	// cost per token is the pass minus the tokenizer's.
	noSkip := p.timed("projection, skipping off", project(false))
	m["projection.self_ns_per_token"] = float64(noSkip-tokenAll) / float64(max(tokens, 1))
	pass := p.timed("projection, skipping on", project(true))
	m["projection.pass_ms"] = ms(pass)

	const cycle = 100_000
	m["buffer.append_purge_ns_per_node"] = float64(p.timed("buffer cycle", func() error {
		b := buffer.New()
		defer b.Release()
		for range cycle {
			e := b.AppendElement(b.Root, "e", nil)
			b.AssignRole(e, 0)
			t := b.AppendText(e, "x")
			b.AssignRole(t, 0)
			b.CloseNode(e)
			b.RemoveRole(t, 0, 1)
			b.RemoveRole(e, 0, 1)
		}
		if b.TotalPurged != 2*cycle || b.CurrentNodes != 0 {
			return fmt.Errorf("purged %d of %d nodes, %d left", b.TotalPurged, 2*cycle, b.CurrentNodes)
		}
		return nil
	})) / (2 * cycle)

	m["splitter.split_mbps"] = 0
	if p.info != nil {
		m["splitter.split_mbps"] = mibPerSec(n, p.timed("splitter", func() error {
			var err error
			if p.in.w.NDJSON {
				_, err = rawsplit.NDJSON(doc)
			} else {
				_, err = rawsplit.XML(doc, p.info.PartitionPath)
			}
			return err
		}))
	}

	// The hash table on the workload's own tuple counts, one key per
	// tuple: what the join phases cost with the engine taken away.
	m["join.table_ms"] = 0
	if build, probe := int(p.in.ref.JoinBuildTuples), int(p.in.ref.JoinProbeTuples); build > 0 && probe > 0 {
		keys := make([][]string, probe)
		for i := range keys {
			keys[i] = []string{"person" + strconv.Itoa(i)}
		}
		m["join.table_ms"] = ms(p.timed("join table", func() error {
			t := join.NewTable()
			for i := range build {
				t.Add(keys[i%probe], nil)
			}
			matched := 0
			for _, k := range keys {
				matched += len(t.Match(k))
			}
			if matched != build {
				return fmt.Errorf("matched %d of %d tuples", matched, build)
			}
			return nil
		}))
	}

	m["compile_us"] = float64(p.timed("compile", func() error {
		_, err := gcx.Compile(p.in.w.Query)
		return err
	})) / 1e3

	const gets = 20_000
	cache := gcx.NewQueryCache(8)
	m["cache.hit_ns"] = float64(p.timed("cache hit", func() error {
		for range gets + 1 { // the first one compiles
			if _, err := cache.Get(p.in.w.Query); err != nil {
				return err
			}
		}
		return nil
	})) / gets

	exec := func(opts gcx.Options, reader bool, res **gcx.Result) func() error {
		return func() error {
			var out countWriter
			var r *gcx.Result
			var err error
			if reader {
				r, err = p.in.q.Execute(bytes.NewReader(doc), &out, opts)
			} else {
				r, err = p.in.q.ExecuteBytes(doc, &out, opts)
			}
			if err == nil && out.n != p.in.ref.OutputBytes {
				err = fmt.Errorf("wrote %d bytes, reference has %d", out.n, p.in.ref.OutputBytes)
			}
			if res != nil {
				*res = r
			}
			return err
		}
	}
	seq := p.timed("sequential run", exec(p.seq, false, nil))
	m["engine.self_ms"] = ms(seq - pass)
	m["core.reader_over_bytes"] = float64(p.timed("reader run", exec(p.seq, true, nil))) / float64(seq)

	// What two shards do to this query, whether or not the workload runs
	// sharded: a query that cannot be partitioned falls back and reads 1.
	sharded := p.seq
	sharded.Shards = 2
	m["shard.speedup"] = float64(seq) / float64(p.timed("sharded run", exec(sharded, false, nil)))
	sharded.EnableTrace = true
	var res *gcx.Result
	m["shard.merge_ms"], m["shard.chunks"] = 0, 0
	if p.try("sharded traced run", exec(sharded, false, &res)) {
		m["shard.chunks"] = float64(res.Chunks)
		for _, ph := range res.Trace {
			if ph.Phase == "merge" {
				m["shard.merge_ms"] = ms(ph.Duration())
			}
		}
	}

	allocs := make([]float64, 0, probeReps)
	for range probeReps {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if p.try("allocation count", exec(p.seq, false, nil)) {
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		}
	}
	m["engine.allocs_per_op"] = median(allocs)
}

// serialize replays the document's first tokens into the format's sink
// and reports output bytes per second.
func (p *prober) serialize() float64 {
	const limit = 200_000
	src, err := core.NewSourceBytes(p.format, p.in.doc)
	if err != nil {
		p.fail(err)
		return 0
	}
	defer src.Release()
	var toks []event.Token
	var open []string
	for len(toks) < limit {
		t, err := src.Next()
		if err != nil {
			break
		}
		t.Attrs = append([]event.Attr(nil), t.Attrs...) // the tokenizer reuses its attribute scratch
		switch t.Kind {
		case event.StartElement:
			open = append(open, t.Name)
		case event.EndElement:
			open = open[:len(open)-1]
		}
		toks = append(toks, t)
	}
	for i := len(open) - 1; i >= 0; i-- {
		toks = append(toks, event.Token{Kind: event.EndElement, Name: open[i]})
	}
	var out countWriter
	d := p.timed("serializer", func() error {
		out = countWriter{}
		sink, err := core.NewSink(p.format, &out)
		if err != nil {
			return err
		}
		defer sink.Release()
		for i := range toks {
			switch t := &toks[i]; t.Kind {
			case event.StartElement:
				sink.StartElement(t.Name, t.Attrs)
			case event.EndElement:
				sink.EndElement(t.Name)
			case event.Text:
				sink.Text(t.Text)
			}
		}
		return sink.Flush()
	})
	return mibPerSec(int(out.n), d)
}

func eofIsNil(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}
