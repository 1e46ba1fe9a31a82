// Package core is the seam between the public gcx package and the
// runtime: it wires the compile pipeline (parse → normalize → analyze →
// rewrite), selects the front end for an input's format (format.go) and
// runs one compiled plan over one input — on the streaming engine or,
// for the paper's full-buffering comparison, on the DOM oracle.
package core

import (
	"context"
	"io"
	"time"

	"gcx/internal/analysis"
	"gcx/internal/dom"
	"gcx/internal/engine"
	"gcx/internal/obs"
	"gcx/internal/stats"
	"gcx/internal/xqparse"
)

// Compile parses and analyzes a query with the paper's default
// analysis.
func Compile(src string) (*analysis.Plan, error) {
	return CompileWithOptions(src, analysis.Options{})
}

// CompileWithOptions parses and analyzes with explicit analysis
// switches (ablations).
func CompileWithOptions(src string, opts analysis.Options) (*analysis.Plan, error) {
	q, err := xqparse.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := analysis.AnalyzeWithOptions(q, opts)
	if err != nil {
		return nil, err
	}
	plan.Source = src
	return plan, nil
}

// Run evaluates a compiled plan over in, writing the serialized result
// to output, and fills res with the run's statistics. It is the one
// sequential run path: gcx.Query calls it for unsharded runs with a new
// record, and internal/shard once per chunk with the record of the
// chunk's task, so that a chunk run allocates none.
//
// The streaming engine observes ctx at every token-pull boundary, the
// DOM oracle during parsing and between loop iterations; on cancellation
// ctx.Err() is returned and no further output is written. A node-budget
// breach returns the partial statistics (res) alongside the error
// wrapping buffer.ErrBudget; every other error returns a nil record.
//
// The returned record is the evaluator's own, completed here with
// Duration, ShardsUsed and — when cfg.Timer is set — the trace: setup
// (format resolution, source/sink construction), the engine's
// stream/join phases, and eval as the wall-time remainder, so the
// phases sum to Duration exactly.
//
// A Plan is immutable after compilation, so any number of Run calls may
// share one plan across goroutines; all per-run state lives in the
// engine instance created here.
func Run(ctx context.Context, plan *analysis.Plan, in Input, output io.Writer, cfg engine.Config, res *stats.Run) (*stats.Run, error) {
	start := time.Now()
	in = in.Resolved()
	src, err := newSource(in)
	if err != nil {
		return nil, err
	}
	sink, err := NewSink(in.Format, output)
	if err != nil {
		src.Release()
		return nil, err
	}
	if cfg.Timer != nil {
		cfg.Timer.Add(obs.PhaseSetup, time.Since(start))
	}
	if cfg.Oracle {
		var full *stats.Run
		if full, err = dom.Run(ctx, plan, src, sink, cfg.MaxBufferedNodes); full != nil {
			*res = *full
		} else {
			res = nil
		}
		src.Release()
		sink.Release()
	} else {
		eng := engine.New(plan, src, sink, cfg)
		res, err = eng.RunContext(ctx, res)
		// The record only carries counters, so the engine's pooled
		// buffers (source, sink, node slabs) go back to their pools
		// right away.
		eng.Release()
	}
	if res == nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	res.ShardsUsed = 1
	if t := cfg.Timer; t != nil {
		if rest := int64(res.Duration) - t.Sum(); rest > 0 {
			t.AddNanos(obs.PhaseEval, rest)
		}
		res.Trace = t.Phases()
	}
	return res, err
}
