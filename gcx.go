// Package gcx is a streaming XQuery engine with dynamic buffer
// minimization, a Go reproduction of the GCX system (Koch, Scherzinger,
// Schmidt: "The GCX System: Dynamic Buffer Minimization in Streaming
// XQuery Evaluation", VLDB 2007).
//
// GCX evaluates a practical fragment of composition-free XQuery over
// XML streams in a single pass. At compile time it derives projection
// paths from the query — each defining a role, a token of future
// relevance — and inserts signOff statements at preemption points. At
// runtime, only nodes matched by a projection path are buffered; as
// sign-offs strip roles from buffered nodes, subtrees whose role count
// reaches zero are purged immediately (active garbage collection),
// keeping memory proportional to what the remaining evaluation can
// still touch rather than to the input size.
//
// Quick start:
//
//	q, err := gcx.Compile(`<out>{ for $b in /bib/book return $b/title }</out>`)
//	if err != nil { ... }
//	res, err := q.Execute(inputReader, os.Stdout, gcx.Options{})
//	fmt.Println(res.PeakBufferedNodes) // high watermark of the buffer
//
// Besides the GCX engine itself the package bundles two reference
// engines used by the paper's evaluation — full buffering (EngineDOM)
// and static projection without garbage collection
// (EngineProjectionOnly) — selectable via Options.Engine, so the
// paper's comparisons can be reproduced with a one-line change.
package gcx

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
	"unsafe"

	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/core"
	"gcx/internal/engine"
	"gcx/internal/obs"
	"gcx/internal/shard"
	"gcx/internal/stats"
)

// ErrBufferBudget is the sentinel returned (wrapped, with the concrete
// numbers) when a run's buffer population crosses
// Options.MaxBufferedNodes: the engine degrades gracefully within one
// token of the breach instead of buffering without bound. Match with
// errors.Is. For the sequential streaming engines the partial Result is
// returned alongside the error.
var ErrBufferBudget = buffer.ErrBudget

// Engine selects the buffering discipline of Execute.
type Engine int

const (
	// EngineGCX is the paper's engine: stream projection plus active
	// garbage collection (default).
	EngineGCX Engine = iota
	// EngineProjectionOnly applies static projection but never purges —
	// the static-analysis-only class of systems in the paper's Fig. 5.
	EngineProjectionOnly
	// EngineDOM buffers the complete input before evaluating — the
	// conventional in-memory class (Galax, Saxon, QizX in the paper).
	EngineDOM
)

// engineNames are the canonical engine names, indexed by Engine.
var engineNames = [...]string{EngineGCX: "gcx", EngineProjectionOnly: "projection", EngineDOM: "dom"}

func (e Engine) String() string {
	if e < 0 || int(e) >= len(engineNames) {
		return fmt.Sprintf("Engine(%d)", int(e))
	}
	return engineNames[e]
}

// ParseEngine resolves a CLI/URL engine name: gcx, projection (aliases
// proj, nogc) or dom (alias naive). The empty string means EngineGCX.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "gcx":
		return EngineGCX, nil
	case "projection", "proj", "nogc":
		return EngineProjectionOnly, nil
	case "dom", "naive":
		return EngineDOM, nil
	default:
		return EngineGCX, fmt.Errorf("unknown engine %q (want gcx, projection or dom)", s)
	}
}

// Format selects the input syntax — and with it the output syntax: XML
// input serializes results as XML, JSON/NDJSON input as JSON lines
// (DESIGN.md §8). The engine itself is format-neutral; the format only
// picks which front end feeds it events.
type Format = core.Format

const (
	// FormatAuto sniffs the stream's first non-whitespace byte: '<'
	// means XML, anything else JSON. Auto never resolves to NDJSON —
	// line framing (and with it NDJSON sharding) is an explicit promise
	// the caller must make via FormatNDJSON.
	FormatAuto = core.FormatAuto
	// FormatXML is the paper's XML front end.
	FormatXML = core.FormatXML
	// FormatJSON is a stream of whitespace-separated JSON values: a
	// single document, or concatenated/pretty-printed values. Object
	// keys become element names, arrays repeated siblings, so the
	// query's paths apply unchanged under the virtual /root/record
	// document shape.
	FormatJSON = core.FormatJSON
	// FormatNDJSON is newline-delimited JSON — exactly one record per
	// line, the boundary record-aligned stream sharding cuts at.
	FormatNDJSON = core.FormatNDJSON
)

// ParseFormat resolves a CLI/URL format name: auto, xml, json, ndjson
// (aliases jsonl, json-lines). The empty string means FormatAuto.
func ParseFormat(s string) (Format, error) { return core.ParseFormat(s) }

// DetectPathFormat guesses a format from a file name's extension
// (.xml, .json, .ndjson, .jsonl), returning FormatAuto when the
// extension is not telling.
func DetectPathFormat(path string) Format { return core.DetectPathFormat(path) }

// SignOffMode selects when a signOff on a still-streaming subtree takes
// effect; see DESIGN.md §3.
type SignOffMode int

const (
	// SignOffDeferred queues the removal until the subtree's close tag
	// arrives (default; matches the paper's published buffer plots).
	SignOffDeferred SignOffMode = iota
	// SignOffEager forces the input forward to the subtree's end and
	// removes immediately.
	SignOffEager
)

// MaxShards is the upper bound on Options.Shards: each shard is a full
// engine instance with its own buffer manager, so larger requests are
// clamped rather than translated into unbounded goroutines.
const MaxShards = shard.MaxWorkers

// Options tunes one execution of a compiled query. The zero value runs
// the paper's engine, sequentially, with every optimisation on.
type Options struct {
	Engine      Engine
	SignOffMode SignOffMode
	// Format selects the input (and with it the output) syntax; the
	// zero value FormatAuto sniffs the stream's first non-whitespace
	// byte. Sharded execution (Shards > 1) partitions XML input at the
	// compiled partition path and FormatNDJSON input at newlines;
	// FormatJSON input makes no line-framing promise and always runs
	// sequentially.
	Format Format
	// EnableAggregation opts into the aggregation extension — count(),
	// sum(), min(), max(), avg() in output position (the paper's
	// fragment excludes aggregation).
	EnableAggregation bool
	// DisableSubtreeSkip turns off projection-guided byte-level subtree
	// skipping (DESIGN.md §7), forcing the streaming engines to
	// tokenize every input byte. The query output is byte-identical
	// either way; the switch exists for A/B measurements and parity
	// tests. Runs with RecordEvery set disable skipping automatically,
	// so the recorded per-token buffer plots keep the paper's x-axis.
	DisableSubtreeSkip bool
	// RecordEvery samples (tokens processed → nodes buffered) every N
	// tokens for buffer plots like the paper's Figures 3 and 4;
	// 0 disables recording.
	RecordEvery int64
	// Shards requests sharded data-parallel execution (DESIGN.md §6):
	// the input is partitioned at the query's outermost for-loop path
	// and evaluated by Shards concurrent engine instances, with outputs
	// merged in input order so the result is byte-identical to the
	// sequential run. 0 or 1 keeps the sequential engine; counts above
	// MaxShards are clamped. Detected joins shard too: the probe side is
	// partitioned and the build section broadcast to every worker.
	// Queries that are not partitionable (whole-input aggregation,
	// correlated loops beyond the join shape — see Query.Shardable) and
	// runs with RecordEvery set fall back to sequential execution
	// transparently.
	Shards int
	// MaxBufferedNodes, when positive, is the run's node budget
	// (DESIGN.md §9): the first buffered node pushing the population
	// past it aborts the run within one token with an error wrapping
	// ErrBufferBudget — graceful degradation instead of unbounded
	// memory. Sequential streaming runs return the partial Result
	// alongside the error. Sharded runs apply the budget per worker
	// (each shard is an independent engine instance), so the run's
	// total is bounded by Shards×MaxBufferedNodes. Zero means
	// unlimited. Query.Report says, per query, whether a budget can
	// statically be guaranteed to suffice — see ExplainReport.
	MaxBufferedNodes int64
	// DisableJoin turns off the streaming hash join operator
	// (DESIGN.md §10), evaluating detected two-variable equality joins
	// with nested loops instead. The query output is byte-identical
	// either way; the switch exists for A/B measurements and
	// differential tests.
	DisableJoin bool
	// EnableTrace records per-phase wall time (DESIGN.md §11) into
	// Result.Trace: compile, setup, stream, join_build/join_probe,
	// split/merge (sharded runs) and eval. For sequential runs the
	// phases after compile sum to Result.Duration exactly; sharded
	// runs sum worker phases across workers, so their total can exceed
	// the wall time. Off by default — the stamps cost two monotonic
	// clock reads per evaluator pull when on.
	EnableTrace bool
}

// TracePhase is one phase of an execution trace (Options.EnableTrace):
// a stage name — compile, setup, stream, join_build, join_probe, split,
// merge or eval — and the cumulative wall time spent in it.
type TracePhase = obs.PhaseTime

// Role describes one projection path derived by static analysis.
type Role struct {
	// Name is the paper-style role name: r1, r2, …
	Name string
	// Path is the absolute projection path (e.g. "/bib/*/price[1]").
	Path string
	// Kind classifies the role: root, binding, output, exists, operand
	// or count.
	Kind string
	// Provenance points at the query fragment that created the role.
	Provenance string
}

// SeriesPoint is one sample of the buffer plot: tokens processed (the
// x-axis of the paper's plots), nodes buffered (the y-axis) and the
// estimated buffered bytes.
type SeriesPoint = stats.Point

// Result reports the statistics of one execution: the buffer watermarks
// and churn, token and skip counts, the join operator's work, wall time,
// the optional buffer plot and trace, and how the run was sharded. It is
// the record the evaluator itself fills in — see the field
// documentation on stats.Run. Its String form is the `gcx -stats` line.
type Result = stats.Run

// Query is a compiled query, reusable across executions. A Query is
// immutable after compilation and safe for concurrent use: any number
// of goroutines may call Execute/ExecuteContext on the same Query over
// distinct input streams simultaneously — all per-run state (tokenizer,
// buffer manager, evaluator) is created per call.
type Query struct {
	plan *analysis.Plan
	// shardInfo is the compile-time partitioning recipe; nil when the
	// query must run sequentially, with shardReason saying why.
	shardInfo   *analysis.ShardInfo
	shardReason string
	// compileNanos is the wall time Compile spent on this query,
	// reported as the trace's compile phase.
	compileNanos int64
}

// CompileOptions exposes the static-analysis ablation switches. The
// zero value reproduces the paper's analysis.
type CompileOptions struct {
	// DisableFirstWitness turns off the [1] first-witness pruning of
	// existence-condition projection paths (the paper's r4), buffering
	// every witness candidate. For ablation measurements only.
	DisableFirstWitness bool
	// CoarseGranularity switches use roles to subtree granularity
	// (whole element subtrees instead of node-precise projection) —
	// the relevance model of simpler streaming systems. For ablation
	// measurements only.
	CoarseGranularity bool
	// StrictStreaming rejects queries the static analyzer classifies
	// as Unbounded (joins, whole-input aggregation, absolute-path
	// outputs — DESIGN.md §9) at compile time, with the analyzer's
	// reason. Use it where a runtime node budget will be enforced:
	// an Unbounded query would only ever trip the budget on real
	// inputs, so strict mode fails fast instead.
	StrictStreaming bool
}

// Compile parses and statically analyzes a query: normalization to the
// single-step core, projection-path/role derivation and signOff
// insertion.
func Compile(src string) (*Query, error) {
	return CompileWithOptions(src, CompileOptions{})
}

// CompileWithOptions compiles with explicit analysis switches.
func CompileWithOptions(src string, opts CompileOptions) (*Query, error) {
	start := time.Now()
	plan, err := core.CompileWithOptions(src, analysis.Options{
		DisableFirstWitness: opts.DisableFirstWitness,
		CoarseGranularity:   opts.CoarseGranularity,
	})
	if err != nil {
		return nil, err
	}
	if opts.StrictStreaming && plan.Stream.Class == analysis.Unbounded {
		return nil, fmt.Errorf("gcx: strict streaming rejects statically unbounded query: %s", plan.Stream.Reason)
	}
	q := &Query{plan: plan}
	q.shardInfo, q.shardReason = analysis.Shardable(plan)
	q.compileNanos = int64(time.Since(start))
	return q, nil
}

// MustCompile is Compile for static queries; it panics on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Roles returns the projection paths derived from the query, in
// derivation order (the paper's numbering r1, r2, …).
func (q *Query) Roles() []Role {
	roles := make([]Role, len(q.plan.Roles))
	for i, r := range q.plan.Roles {
		roles[i] = Role{
			Name:       r.Name(),
			Path:       r.Path.String(),
			Kind:       r.Kind.String(),
			Provenance: r.Provenance,
		}
	}
	return roles
}

// Explain renders the analyzer's verdicts as text: the role browser and
// the rewritten query with its signOff statements — the textual
// counterpart of the demo's Fig. 3(a) visualization — plus the
// streamability, static-bound, skipping and sharding lines. It is
// generated from the structured Report (ExplainReport.Text), so the two
// forms cannot drift.
func (q *Query) Explain() string { return q.Report().Text() }

// Shardable reports whether the query can run sharded (DESIGN.md §6):
// partitionable on its outermost for-loop path, with no state shared
// across iterations. Non-shardable queries silently run sequentially
// regardless of Options.Shards.
func (q *Query) Shardable() bool { return q.shardInfo != nil }

// UsesAggregation reports whether the query needs the aggregation
// extension (count/sum/min/max/avg).
func (q *Query) UsesAggregation() bool { return q.plan.UsesAggregation }

// Execute evaluates the query over input, writing the serialized result
// to output. It returns an error for Options carrying an unknown Engine
// or SignOffMode value rather than guessing a discipline.
func (q *Query) Execute(input io.Reader, output io.Writer, opts Options) (*Result, error) {
	return q.run(context.Background(), core.Input{Reader: input}, output, opts)
}

// ExecuteContext evaluates the query over input under a cancellation
// context, writing the serialized result to output. Cancellation is
// observed at every token-pull boundary, so the run aborts within one
// token of ctx being cancelled and returns ctx.Err() without writing
// further output.
func (q *Query) ExecuteContext(ctx context.Context, input io.Reader, output io.Writer, opts Options) (*Result, error) {
	return q.run(ctx, core.Input{Reader: input}, output, opts)
}

// ExecuteBytes evaluates the query over an in-memory document. See
// ExecuteBytesContext.
func (q *Query) ExecuteBytes(data []byte, output io.Writer, opts Options) (*Result, error) {
	return q.run(context.Background(), core.Input{Data: data}, output, opts)
}

// ExecuteBytesContext evaluates the query over an in-memory document
// under a cancellation context, writing the serialized result to
// output. This is the zero-copy fast path (DESIGN.md §12): the
// tokenizer scans data in place with whole-window vectorized scans and
// text tokens borrow subslices of data instead of allocating copies.
// The aliasing contract is the caller's side of that bargain: data must
// not be mutated until the call returns. Sharded runs split data with
// the same zero-copy scan and hand workers subslices where the format
// allows.
func (q *Query) ExecuteBytesContext(ctx context.Context, data []byte, output io.Writer, opts Options) (*Result, error) {
	return q.run(ctx, core.Input{Data: data}, output, opts)
}

// run is the one execution path behind the Execute* methods: it maps
// the options onto the internal run configuration, routes the input to
// the sharded or the sequential runner, and prefixes the trace with the
// query's compile time. A node-budget breach (err wrapping
// ErrBufferBudget) on the sequential path still carries the partial
// statistics; both are returned.
func (q *Query) run(ctx context.Context, in core.Input, output io.Writer, opts Options) (*Result, error) {
	cfg, err := q.config(opts)
	if err != nil {
		return nil, err
	}
	in.Format = opts.Format
	var res *Result
	if shards := q.shardCount(opts); shards > 1 {
		res, err = shard.Run(ctx, q.shardInfo, in, output, shards, cfg)
	} else {
		res, err = core.Run(ctx, q.plan, in, output, cfg)
	}
	if res != nil && opts.EnableTrace {
		res.Trace = slices.Insert(res.Trace, 0, TracePhase{Phase: obs.PhaseCompile.String(), Nanos: q.compileNanos})
	}
	return res, err
}

// config maps the public Options onto the internal run configuration,
// rejecting unknown enum values.
func (q *Query) config(opts Options) (engine.Config, error) {
	cfg := engine.Config{
		Oracle:            opts.Engine == EngineDOM,
		DisableGC:         opts.Engine == EngineProjectionOnly,
		EnableAggregation: opts.EnableAggregation,
		DisableSkip:       opts.DisableSubtreeSkip,
		MaxBufferedNodes:  opts.MaxBufferedNodes,
		DisableJoin:       opts.DisableJoin,
	}
	if opts.Engine < EngineGCX || opts.Engine > EngineDOM {
		return cfg, fmt.Errorf("gcx: unknown engine %d (want EngineGCX, EngineProjectionOnly or EngineDOM)", opts.Engine)
	}
	switch opts.SignOffMode {
	case SignOffDeferred:
		// engine.Deferred is the zero value.
	case SignOffEager:
		cfg.SignOffMode = engine.Eager
	default:
		return cfg, fmt.Errorf("gcx: unknown sign-off mode %d (want SignOffDeferred or SignOffEager)", opts.SignOffMode)
	}
	if opts.Shards < 0 {
		return cfg, fmt.Errorf("gcx: negative shard count %d", opts.Shards)
	}
	if opts.RecordEvery > 0 {
		cfg.Recorder = stats.NewRecorder(opts.RecordEvery)
	}
	if opts.EnableTrace {
		cfg.Timer = new(obs.Timer)
	}
	return cfg, nil
}

// shardCount resolves how many workers a run should use: 0 for the
// sequential path (non-shardable query, ineligible format, recording
// runs or Shards ≤ 1), the clamped worker count otherwise.
func (q *Query) shardCount(opts Options) int {
	if opts.Shards > 1 && q.shardInfo != nil && opts.RecordEvery == 0 && formatShardable(opts.Format, q.shardInfo) {
		return min(opts.Shards, MaxShards)
	}
	return 0
}

// formatShardable reports whether sharded execution is available for
// the requested input format. XML (and Auto, which the splitter treats
// as XML) partitions at the compiled partition path; NDJSON partitions
// at newlines when the query is NDJSON-eligible (wrapperless, cut at or
// below /root/record — analysis.NDJSONShardable); plain JSON makes no
// line-framing promise and always runs sequentially.
func formatShardable(f Format, info *analysis.ShardInfo) bool {
	switch f {
	case FormatNDJSON:
		return analysis.NDJSONShardable(info) == ""
	case FormatJSON:
		return false
	default:
		return true
	}
}

// ExecuteString is a convenience wrapper evaluating over a string input
// and returning the output as a string.
func (q *Query) ExecuteString(input string, opts Options) (string, *Result, error) {
	return q.ExecuteStringContext(context.Background(), input, opts)
}

// ExecuteStringContext is ExecuteString under a cancellation context,
// with the same within-one-token abort guarantee as ExecuteContext. It
// runs on the zero-copy byte path: strings are immutable, so viewing
// the input's bytes in place satisfies ExecuteBytesContext's aliasing
// contract for free.
func (q *Query) ExecuteStringContext(ctx context.Context, input string, opts Options) (string, *Result, error) {
	var out strings.Builder
	data := unsafe.Slice(unsafe.StringData(input), len(input))
	res, err := q.ExecuteBytesContext(ctx, data, &out, opts)
	if err != nil {
		return "", nil, err
	}
	return out.String(), res, nil
}
