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
	"gcx/internal/engine"
	"gcx/internal/jsontok"
	"gcx/internal/obs"
	"gcx/internal/stats"
	"gcx/internal/xmltok"
	"gcx/internal/xpath"
)

// MaxWorkers caps the worker pool: each worker is a full engine
// instance with its own tokenizer and buffer manager, so an unbounded
// Options.Shards from a caller must not translate into unbounded
// goroutines. 64 comfortably exceeds any machine this targets.
const MaxWorkers = 64

// task is one chunk travelling through the pool: the producer enqueues
// it to the workers and, in input order, to the merger; the worker
// posts its output on done (capacity 1, so workers never block on a
// slow merge). data is the chunk's bytes regardless of which splitter
// produced it.
type task struct {
	data []byte
	// extra is the broadcast build fragment of a join-sharded run,
	// shared (not copied) across all tasks; nil otherwise.
	extra []byte
	done  chan taskResult
}

type taskResult struct {
	out *bytes.Buffer
	res *stats.Run
	err error
}

// outBufPool recycles the per-chunk output buffers.
var outBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// errShardJoinNDJSON guards a route analysis.NDJSONShardable already
// rejects; reaching it means a caller bypassed the eligibility check.
var errShardJoinNDJSON = errors.New("shard: join plans cannot shard over NDJSON input")

// joinFragment synthesizes the broadcast build fragment of a
// join-sharded run: open tags for the build ancestors below the
// divergence, the captured build subtrees verbatim, the matching close
// tags, and finally the close tags of the shared ancestors the
// splitter left open on every chunk. All steps are name tests
// (analysis.Shardable requires it for join recipes), so the tag names
// are statically known.
func joinFragment(info *analysis.ShardInfo, aux []byte) []byte {
	var b bytes.Buffer
	steps := info.BuildPath.Steps
	for _, st := range steps[info.Divergence : len(steps)-1] {
		b.WriteByte('<')
		b.WriteString(st.Test.Name)
		b.WriteByte('>')
	}
	b.Write(aux)
	for i := len(steps) - 2; i >= info.Divergence; i-- {
		b.WriteString("</")
		b.WriteString(steps[i].Test.Name)
		b.WriteByte('>')
	}
	shared := info.PartitionPath.Steps
	for i := info.Divergence - 1; i >= 0; i-- {
		b.WriteString("</")
		b.WriteString(shared[i].Test.Name)
		b.WriteByte('>')
	}
	return b.Bytes()
}

// splitSteps converts a child-axis path of name and wildcard tests — a
// partition path or a join's build path — to the splitter's steps.
func splitSteps(p xpath.Path) []xmltok.SplitStep {
	steps := make([]xmltok.SplitStep, len(p.Steps))
	for i, st := range p.Steps {
		steps[i] = xmltok.SplitStep{Name: st.Test.Name, Wildcard: st.Test.Kind == xpath.TestWildcard}
	}
	return steps
}

// Run evaluates info over in with workers parallel engine instances
// (≥ 2; callers route 0/1 to the sequential core.Run; clamped to
// MaxWorkers), writing the merged output to output. A streamed input is
// cut by the reader splitters; an in-memory one is scanned in place
// (NDJSON chunks alias it — zero copies on the split side), and the
// caller must not mutate it until the call returns. The reorder window
// is bounded: at most 2×workers chunks are in flight between splitter
// and merge, so memory stays proportional to workers × chunk size
// regardless of input size.
//
// cfg is handed to every worker; a non-nil cfg.Timer turns tracing on
// and collects the shard-level phases, while each chunk run gets a timer
// of its own. cfg.Recorder is ignored: buffer-plot recording is a
// sequential-run feature.
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
	if workers < 2 {
		workers = 2
	}
	if workers > MaxWorkers {
		workers = MaxWorkers
	}
	cfg.Recorder = nil

	// st collects the shard-level trace phases (DESIGN.md §11): the
	// synchronous chunk scan of a join-sharded run (PhaseSplit; the
	// streaming splitter overlaps the workers and is not separable) and
	// the ordered merge's writes (PhaseMerge). Worker phases are summed
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
	var extra []byte
	if in.Format == core.FormatNDJSON {
		if info.Join {
			return nil, errShardJoinNDJSON
		}
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
		if info.Join {
			// Join runs are two-phase (DESIGN.md §10): the build section
			// may follow the probe records in document order, so no chunk
			// can be evaluated before the scan completes. Collect every
			// chunk first, then broadcast the build fragment — the
			// captured build subtrees re-wrapped under the ancestors the
			// splitter left open — to all of them. The reorder window
			// bound does not apply: a join run holds all chunks in memory.
			sp.CaptureAux(splitSteps(info.BuildPath), info.Divergence)
			splitStart := time.Now()
			var chunks [][]byte
			for {
				select {
				case <-cctx.Done():
					return nil, cctx.Err()
				default:
				}
				data, err := nextChunk()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				chunks = append(chunks, data)
			}
			extra = joinFragment(info, sp.AuxData())
			if st != nil {
				st.Add(obs.PhaseSplit, time.Since(splitStart))
			}
			i := 0
			nextChunk = func() ([]byte, error) {
				if i == len(chunks) {
					return nil, io.EOF
				}
				data := chunks[i]
				chunks[i] = nil
				i++
				return data, nil
			}
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
			t := &task{data: data, extra: extra, done: make(chan taskResult, 1)}
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
				// from the bytes splitters): take the zero-copy path,
				// unless a broadcast join fragment has to follow them.
				chunk := core.Input{Format: in.Format, Data: t.data}
				if t.extra != nil {
					chunk.Reader = io.MultiReader(bytes.NewReader(t.data), bytes.NewReader(t.extra))
				}
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
	writeOut := func(p []byte) error {
		if st != nil {
			ws := time.Now()
			defer func() { st.Add(obs.PhaseMerge, time.Since(ws)) }()
		}
		if !wrotePrefix {
			if _, err := output.Write(info.Prefix); err != nil {
				return err
			}
			wrotePrefix = true
		}
		_, err := output.Write(p)
		return err
	}
	for t := range order {
		r := <-t.done
		if firstErr == nil && r.err != nil {
			firstErr = r.err
			cancel() // stop the producer and drain the remaining chunks
		}
		if firstErr == nil {
			if err := writeOut(r.out.Bytes()); err != nil {
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
	if err := writeOut(info.Suffix); err != nil {
		return nil, err
	}
	agg.OutputBytes += int64(len(info.Prefix) + len(info.Suffix))
	if st != nil {
		agg.Trace = obs.SumPhases(agg.Trace, st.Phases())
	}
	agg.ShardsUsed = workers
	agg.Duration = time.Since(start)
	return agg, nil
}
