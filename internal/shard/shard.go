// Package shard implements sharded data-parallel execution (DESIGN.md
// §6): the input stream is partitioned into record-aligned chunks by a
// single scanning pass (xmltok.Splitter for XML, jsontok.Splitter for
// NDJSON — DESIGN.md §8), a pool of workers runs one
// independent engine instance per chunk — each with its own tokenizer,
// buffer manager and serializer — and an ordered merge emits the worker
// outputs in input order, so the sharded result is byte-identical to
// the sequential one. Whether a plan may be sharded, and along which
// path, is decided at compile time by analysis.Shardable.
package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"gcx/internal/analysis"
	"gcx/internal/core"
	"gcx/internal/cursor"
	"gcx/internal/engine"
	"gcx/internal/event"
	"gcx/internal/jsontok"
	"gcx/internal/obs"
	"gcx/internal/stats"
	"gcx/internal/xmltok"
	"gcx/internal/xpath"
)

// MaxWorkers caps the worker pool: each worker is a full engine
// instance with its own tokenizer and buffer manager, so an unbounded
// Options.Shards from a caller must not translate into unbounded
// goroutines; gcx's Query.run clamps it before calling Run. 64
// comfortably exceeds any machine this targets.
const MaxWorkers = 64

// task is one chunk travelling through the pool: the producer enqueues
// it to the workers and, in input order, to the merger; the worker runs
// the chunk into out and res, and signals done (capacity 1, so workers
// never block on a slow merge). data is the chunk's bytes regardless of
// which splitter produced it; own is the buffer the XML splitters built
// it in, which the task keeps for a later chunk.
//
// Once the merge has consumed a task it goes back to taskPool with its
// buffers, record and channel, so that a chunk costs no allocation in
// steady state.
type task struct {
	data []byte
	// offset is the input offset of an NDJSON chunk's first byte, which
	// rebases its worker's syntax error (XML chunks carry synthesized
	// wrapper tags, so their offsets stay chunk-relative).
	offset int64
	own    []byte
	out    bytes.Buffer
	res    stats.Run
	err    error
	done   chan struct{}
}

var taskPool = cursor.NewPool(func() *task { return &task{done: make(chan struct{}, 1)} })

// rebase moves an NDJSON worker's syntax error from its chunk-relative
// offset to the input offset: the chunk starts at offset in the input
// and is the input verbatim.
func rebase(err error, offset int64) {
	var se *jsontok.SyntaxError
	if errors.As(err, &se) {
		se.Offset += offset
	}
}

// recycle hands a consumed task back to the pool, keeping its buffers
// up to cursor.MaxScratch and nothing of the run: a chunk's bytes may
// alias the caller's input.
func (t *task) recycle() {
	if cap(t.own) > cursor.MaxScratch {
		t.own = nil
	}
	if t.out.Cap() > cursor.MaxScratch {
		t.out = bytes.Buffer{}
	}
	t.out.Reset()
	t.data, t.offset, t.res, t.err = nil, 0, stats.Run{}, nil
	taskPool.Put(t)
}

// splitSteps converts a partition path of name and wildcard tests —
// child steps, the last one possibly a descendant step — to the
// splitter's steps.
func splitSteps(p xpath.Path) []xmltok.SplitStep {
	steps := make([]xmltok.SplitStep, len(p.Steps))
	for i, st := range p.Steps {
		steps[i] = xmltok.SplitStep{Name: st.Test.Name, Wildcard: st.Test.Kind == xpath.TestWildcard, Descendant: st.Axis == xpath.Descendant}
	}
	return steps
}

// wrap serializes constant wrapper events to w and counts them into the
// run's output bytes.
func wrap(w io.Writer, toks []event.Token, agg *stats.Run) error {
	if len(toks) == 0 {
		return nil
	}
	s := xmltok.NewSerializer(w)
	defer s.Release()
	for _, t := range toks {
		s.Token(t)
	}
	err := s.Flush()
	agg.OutputBytes += s.BytesWritten()
	return err
}

// onGrid keeps the points of a chunk's every-token series that fall on
// the run's sampling grid, every tokens apart, once its tokens are
// counted after the base tokens of the chunks before it.
func onGrid(series []stats.Point, base, every int64) []stats.Point {
	if every <= 1 {
		return series
	}
	kept := series[:0]
	for _, p := range series {
		if (base+p.Token)%every == 0 {
			kept = append(kept, p)
		}
	}
	return kept
}

// Run evaluates info over in with workers parallel engine instances,
// writing the merged output to output. A streamed input is cut by the
// reader splitters; an in-memory one is scanned in place (NDJSON chunks
// alias it — zero copies on the split side), and the caller must not
// mutate it until the call returns. The reorder window is bounded: at
// most 2×workers chunks are in flight between splitter and merge, so
// memory stays proportional to workers × chunk size regardless of input
// size.
//
// The caller decides that the run shards, and with how many workers:
// Run requires 2 ≤ workers ≤ MaxWorkers, and gcx's Query.run routes
// every other run to the sequential core.Run. cfg is
// handed to every worker; a non-nil cfg.Timer turns tracing on and
// collects the shard-level phases, while each chunk run gets a timer of
// its own.
//
// The returned record is the Merge of the chunk records (DESIGN.md §6):
// counters are sums over the chunks, and the buffer watermarks are the
// largest peak of any one chunk's engine — the unit the node budget and
// the static bound are stated in; at most workers engines hold a buffer
// at once. TokensProcessed counts chunk-document
// tokens, which differ slightly from the sequential token count
// (synthesized wrapper tags; skipped non-record content). A recording
// run's series samples that count: a point every cfg.RecordEvery
// tokens, as a sequential run takes them.
func Run(ctx context.Context, info *analysis.ShardInfo, in core.Input, output io.Writer, workers int, cfg engine.Config) (*stats.Run, error) {
	return run(ctx, info, in, output, workers, 0, cfg)
}

// run is Run with the splitter's chunk size target exposed (0 uses the
// splitter default): smaller chunks balance better, larger chunks
// amortize per-engine setup. Tests shrink it to one record per chunk to
// stress the reorder path.
func run(ctx context.Context, info *analysis.ShardInfo, in core.Input, output io.Writer, workers, chunkTarget int, cfg engine.Config) (*stats.Run, error) {
	start := time.Now()

	// st collects the shard-level trace phase (DESIGN.md §11): the
	// ordered merge's writes (PhaseMerge). The streaming splitter
	// overlaps the workers and is not separable. Worker phases are summed
	// across workers in the merge loop, so a sharded trace's phase total
	// can exceed the run's wall time.
	st := cfg.Timer

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The splitter is format-specific: XML input is cut at partition-
	// path record boundaries with ancestor re-wrapping (xmltok), NDJSON
	// at newlines with no re-wrapping at all (jsontok). Both deliver
	// self-contained chunk documents the workers evaluate independently;
	// nextChunk puts the next one into t.
	var nextChunk func(t *task) error
	if in.Format == core.FormatNDJSON {
		var sp *jsontok.Splitter
		if in.Reader == nil {
			sp = jsontok.NewSplitterBytes(in.Data)
		} else {
			sp = jsontok.NewSplitter(in.Reader)
		}
		sp.SetContext(cctx)
		sp.SetTargetBytes(chunkTarget)
		nextChunk = func(t *task) error {
			c, err := sp.Next()
			t.data, t.offset = c.Data, c.Offset
			return err
		}
	} else {
		steps := splitSteps(info.PartitionPath)
		var sp *xmltok.Splitter
		if in.Reader == nil {
			sp = xmltok.NewSplitterBytes(in.Data, steps)
		} else {
			sp = xmltok.NewSplitter(in.Reader, steps)
		}
		sp.SetContext(cctx)
		sp.SetTargetBytes(chunkTarget)
		nextChunk = func(t *task) error {
			sp.Reuse(t.own)
			c, err := sp.Next()
			t.data = c.Data
			if c.Data != nil {
				t.own = c.Data
			}
			return err
		}
	}

	work := make(chan *task, workers)
	order := make(chan *task, 2*workers)
	var splitErr error

	// Producer: scan the input once, cutting record chunks. Tasks are
	// offered to the workers first and to the ordered merge queue
	// second, so every task the merger waits on is already visible to a
	// worker.
	go func() {
		defer close(order)
		defer close(work)
		for {
			t := taskPool.Get()
			if err := nextChunk(t); err != nil {
				t.recycle()
				if err != io.EOF {
					splitErr = err
				}
				return
			}
			select {
			case work <- t:
			case <-cctx.Done():
				return
			}
			select {
			case order <- t:
			case <-cctx.Done():
				return
			}
		}
	}()

	// Workers: one engine instance per chunk, each with its own buffer
	// manager (and, when tracing, its own timer), under the caller's
	// context. Run waits for all of them: on cancellation the producer
	// can hand a worker a chunk the merge never sees, and no worker may
	// still be reading the caller's input once Run has returned.
	var running sync.WaitGroup
	defer running.Wait()
	for i := 0; i < workers; i++ {
		running.Add(1)
		go func() {
			defer running.Done()
			wcfg := cfg
			if cfg.RecordEvery > 0 {
				// A chunk does not know how many tokens the chunks
				// before it deliver: it records every token, and the
				// merge keeps those on the run's grid (onGrid).
				wcfg.RecordEvery = 1
			}
			for t := range work {
				// Chunk bytes are immutable once handed out (the task's
				// own buffer from the XML splitters, input subslices from
				// the NDJSON bytes splitter): take the zero-copy path.
				chunk := core.Input{Format: in.Format, Data: t.data}
				if st != nil {
					wcfg.Timer = new(obs.Timer)
				}
				_, t.err = core.Run(cctx, info.Inner, chunk, &t.out, wcfg, &t.res)
				if t.err != nil {
					rebase(t.err, t.offset)
				}
				t.done <- struct{}{}
			}
		}()
	}

	// Ordered merge: consume the order queue — input order by
	// construction — and stream each chunk's output as soon as it is
	// ready. The constant wrapper prefix is withheld until there is
	// something to write, mirroring the sequential engine's buffered
	// serializer, which emits nothing when a run fails early.
	agg := &stats.Run{}
	var firstErr error
	wrotePrefix := false
	writeOut := func(p []byte, after []event.Token) error {
		if st != nil {
			ws := time.Now()
			defer func() { st.Add(obs.PhaseMerge, time.Since(ws)) }()
		}
		if !wrotePrefix {
			if err := wrap(output, info.Before, agg); err != nil {
				return err
			}
			wrotePrefix = true
		}
		if _, err := output.Write(p); err != nil {
			return err
		}
		return wrap(output, after, agg)
	}
	for t := range order {
		<-t.done
		if firstErr == nil && t.err != nil {
			firstErr = t.err
			cancel() // stop the producer and drain the remaining chunks
		}
		if firstErr == nil {
			if err := writeOut(t.out.Bytes(), nil); err != nil {
				firstErr = err
				cancel()
			} else {
				t.res.Series = onGrid(t.res.Series, agg.TokensProcessed, cfg.RecordEvery)
				agg.Merge(&t.res)
				agg.Chunks++
			}
		}
		t.recycle()
	}
	if firstErr == nil {
		firstErr = splitErr // close(order) happens-after the assignment
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := writeOut(nil, info.After); err != nil {
		return nil, err
	}
	if st != nil {
		agg.Trace = obs.SumPhases(agg.Trace, st.Phases())
	}
	agg.ShardsUsed = workers
	agg.Duration = time.Since(start)
	return agg, nil
}
