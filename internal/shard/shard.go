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
	"io"
	"sync"
	"time"

	"gcx/internal/analysis"
	"gcx/internal/core"
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
// it to the workers and, in input order, to the merger; the worker
// posts its output on done (capacity 1, so workers never block on a
// slow merge). data is the chunk's bytes regardless of which splitter
// produced it.
type task struct {
	data []byte
	done chan taskResult
}

type taskResult struct {
	out *bytes.Buffer
	res *stats.Run
	err error
}

// outBufPool recycles the per-chunk output buffers.
var outBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// splitSteps converts a child-axis partition path of name and wildcard
// tests to the splitter's steps.
func splitSteps(p xpath.Path) []xmltok.SplitStep {
	steps := make([]xmltok.SplitStep, len(p.Steps))
	for i, st := range p.Steps {
		steps[i] = xmltok.SplitStep{Name: st.Test.Name, Wildcard: st.Test.Kind == xpath.TestWildcard}
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
// Run requires 2 ≤ workers ≤ MaxWorkers and a nil cfg.Recorder
// (buffer-plot recording is a sequential-run feature), and gcx's
// Query.run routes every other run to the sequential core.Run. cfg is
// handed to every worker; a non-nil cfg.Timer turns tracing on and
// collects the shard-level phases, while each chunk run gets a timer of
// its own.
//
// The returned record is the Merge of the chunk records (DESIGN.md §6):
// counters are sums over the chunks, and the buffer watermarks are sums
// of the per-chunk peaks — an upper bound on the true simultaneous peak,
// since workers run staggered. TokensProcessed counts chunk-document
// tokens, which differ slightly from the sequential token count
// (synthesized wrapper tags; skipped non-record content).
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
	// self-contained chunk documents the workers evaluate independently.
	var nextChunk func() ([]byte, error)
	if in.Format == core.FormatNDJSON {
		var sp *jsontok.Splitter
		if in.Reader == nil {
			sp = jsontok.NewSplitterBytes(in.Data)
		} else {
			sp = jsontok.NewSplitter(in.Reader)
		}
		sp.SetContext(cctx)
		sp.SetTargetBytes(chunkTarget)
		nextChunk = func() ([]byte, error) {
			c, err := sp.Next()
			return c.Data, err
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
		nextChunk = func() ([]byte, error) {
			c, err := sp.Next()
			return c.Data, err
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
			data, err := nextChunk()
			if err == io.EOF {
				return
			}
			if err != nil {
				splitErr = err
				return
			}
			t := &task{data: data, done: make(chan taskResult, 1)}
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
			for t := range work {
				buf := outBufPool.Get().(*bytes.Buffer)
				buf.Reset()
				// Chunk bytes are immutable once handed out (fresh
				// buffers from the reader splitters, input subslices
				// from the bytes splitters): take the zero-copy path.
				chunk := core.Input{Format: in.Format, Data: t.data}
				if st != nil {
					wcfg.Timer = new(obs.Timer)
				}
				res, err := core.Run(cctx, info.Inner, chunk, buf, wcfg)
				t.done <- taskResult{out: buf, res: res, err: err}
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
		r := <-t.done
		if firstErr == nil && r.err != nil {
			firstErr = r.err
			cancel() // stop the producer and drain the remaining chunks
		}
		if firstErr == nil {
			if err := writeOut(r.out.Bytes(), nil); err != nil {
				firstErr = err
				cancel()
			} else {
				agg.Merge(r.res)
				agg.Chunks++
			}
		}
		if r.out != nil {
			outBufPool.Put(r.out)
		}
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
