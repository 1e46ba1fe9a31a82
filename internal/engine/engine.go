// Package engine implements the GCX runtime (paper Fig. 2): the
// sequential, pull-based query evaluator on top of the buffer manager
// and the stream preprojector.
//
// The evaluator walks the rewritten query. Whenever it needs data that
// is not yet buffered — the next binding of a for-loop variable, the
// witness of an existence condition, a subtree to emit — it blocks on
// the buffer manager (ensure), which pulls tokens through the
// preprojector until the demand is satisfiable or the input is
// exhausted. signOff statements trigger role removal and, with it, the
// active garbage collection of the buffer.
package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/cursor"
	"gcx/internal/event"
	"gcx/internal/obs"
	"gcx/internal/projection"
	"gcx/internal/stats"
	"gcx/internal/xpath"
	"gcx/internal/xqast"
	"gcx/internal/xqvalue"
)

// Config tunes a run. It is the one options record between gcx.Options
// and the evaluators: internal/core and internal/shard pass it through
// unchanged. The streaming engine reads all of it; the DOM oracle
// (internal/dom) reads MaxBufferedNodes. Whether a run skips
// subtrees and whether it runs the join operator are the plan's
// verdicts (analysis.Plan.Automaton, Plan.Join), not settings here.
type Config struct {
	// Oracle selects the full-buffering DOM evaluator instead of this
	// engine. The switch is made by core.Run, so an Engine never sees it
	// set.
	Oracle bool
	// DisableGC runs static projection without dynamic buffer
	// minimization: roles are tracked but nothing is purged. This is
	// the projection-only baseline engine of the Fig. 5 comparison.
	DisableGC bool
	// MaxBufferedNodes, when positive, is the run's node budget: the
	// first buffered node pushing the population past it aborts the run
	// within one token, returning an error wrapping buffer.ErrBudget
	// together with the partial statistics. Zero means unlimited.
	MaxBufferedNodes int64
	// RecordEvery, when positive, samples the buffer size every
	// RecordEvery delivered tokens into the run's Series. Recording only
	// observes: the run skips, prunes and forwards as it would without it.
	RecordEvery int64
	// Timer, if non-nil, accumulates per-phase wall time (DESIGN.md
	// §11): ensure's pull loop into PhaseStream, the join operator's
	// per-tuple capture and replay into PhaseJoinBuild/PhaseJoinProbe;
	// core.Run adds setup and the eval remainder and returns the phases
	// as the run's Trace. A nil Timer is the default and costs nothing
	// on the hot path.
	Timer *obs.Timer
}

// Engine evaluates one compiled query over one input event stream. It
// is format-agnostic: the Source and Sink given to New are the only
// places a concrete syntax (XML, JSON) exists — everything in here
// operates on the event vocabulary of internal/event.
type Engine struct {
	plan *analysis.Plan
	cfg  Config
	buf  *buffer.Buffer
	src  event.Source
	proj *projection.Preprojector
	out  event.Sink
	ctx  context.Context
	// done caches ctx.Done() so the per-step cancellation check in
	// ensure is a lock-free channel poll.
	done <-chan struct{}
	// join is the streaming join operator's run state, &jr, when the
	// plan carries a detected join; nil otherwise (then every loop runs
	// nested).
	join *joinRun
	jr   joinRun
	// inSpan marks that a trace span is open, so nested timed sections
	// (ensure calls inside the join operator's scan) attribute to the
	// enclosing phase instead of double-counting.
	inSpan bool
	// env is the variable environment, indexed by the slots the analysis
	// resolved every variable to (xqast.ForExpr.Slot): slot 0 is the
	// document root, a loop's slot holds its current binding while the
	// body runs and is cleared when the binding is unpinned (loop). A
	// binding is pinned for as long as its slot holds it, so the handles
	// only assert (under go test) that the pin really kept the node.
	env []buffer.Handle
	// vals is the scratch the value sequences of conditions, aggregates
	// and attribute templates are built in; attrs is the one a
	// constructor's attribute list is built in.
	vals  []string
	attrs []event.Attr
	// prune is set when the run skips dead children and collects
	// garbage: then a condition is decided at the first event that makes
	// it certain, and a prunable sign-off on an open binding stops its
	// role from matching inside it (DESIGN.md §3). Reference plans that
	// do not skip and the projection-only engine keep the close-tag
	// timing, so their per-token profiles do not move.
	prune bool
	// series is the buffer plot sampled so far (Config.RecordEvery); the
	// run's record takes it over.
	series []stats.Point
	// paths is the scratch the plan's role paths are handed to the
	// preprojector in.
	paths []xpath.Path
	// held is the scratch a forwarded expression's buffered matches are
	// copied into (forward).
	held []buffer.Match
	// signedOff marks, per role, a sign-off run early — by a stream
	// output expression that forwarded its binding (DESIGN.md §3,
	// "Stream-through output"), or by a decision for the branch not
	// taken ("Decision timing"); the sign-off statement that follows in
	// the binding's iteration then has nothing left to do.
	signedOff []bool
	// pending are the if-expressions whose conditions are being decided,
	// innermost last (decide). runs is set when the run prunes and the
	// source states runs: only then is an atom decided at a run's end.
	pending []pending
	runs    bool
	// released marks an engine handed back by Release (checked under
	// go test, see live).
	released bool
}

// enginePool recycles engines with their buffer manager and
// preprojector, so that a run — a shard worker's run over one chunk
// above all — starts on scratch an earlier run grew instead of
// allocating its own (DESIGN.md §6).
var enginePool = cursor.NewPool(func() *Engine { return new(Engine) })

// checkReleased turns on the use-after-Release checks under go test,
// like the buffer's stale-reference checks.
var checkReleased = testing.Testing()

// New builds an engine instance for a single run over the given event
// source, writing the result through sink. The caller (internal/core)
// picks the concrete source and sink for the run's input and output
// format and remains responsible for releasing them after the engine's
// Release.
func New(plan *analysis.Plan, src event.Source, sink event.Sink, cfg Config) *Engine {
	e := enginePool.Get()
	if e.buf == nil {
		e.buf, e.proj = buffer.New(), new(projection.Preprojector)
	} else {
		e.buf.Reset()
	}
	buf, proj := e.buf, e.proj
	buf.DisableGC = cfg.DisableGC
	buf.MaxNodes = cfg.MaxBufferedNodes
	for _, r := range plan.Roles {
		e.paths = append(e.paths, r.Path)
	}
	proj.Reset(src, buf, e.paths)
	proj.EnableSkipping(plan.Automaton)
	e.plan, e.cfg, e.src, e.out = plan, cfg, src, sink
	e.env = append(e.env[:0], make([]buffer.Handle, plan.Slots)...)
	e.signedOff = append(e.signedOff[:0], make([]bool, len(plan.Roles))...)
	e.env[0] = buffer.Hold(buf.Root)
	// EnableSkipping installs no skipper for a plan that does not skip.
	e.prune = plan.Automaton != nil && !cfg.DisableGC
	if plan.Join != nil {
		e.jr.info = plan.Join
		e.join = &e.jr
		buf.Watch(plan.Join.BuildRole)
	}
	if e.runs = e.prune && src.Runs() && len(plan.RunNames) != 0; e.runs {
		proj.WatchRuns(plan.RunNames, e)
	}
	if f, ok := src.(event.Filtered); ok && e.prune && plan.Filter != nil {
		f.SetFilter(plan.Filter)
	}
	e.released = false
	return e
}

// Buffer exposes the underlying buffer (tests and the -explain tooling
// inspect it; external callers use the run's stats.Run).
func (e *Engine) Buffer() *buffer.Buffer {
	e.live()
	return e.buf
}

// live panics under go test when the engine has been released: a
// released engine goes back to the pool, and a holder that still uses
// it would be reading a later run's state.
func (e *Engine) live() {
	if checkReleased && e.released {
		panic("engine: use of a released engine")
	}
}

// Run evaluates the query to completion into a new record.
func (e *Engine) Run() (*stats.Run, error) {
	return e.RunContext(context.Background(), new(stats.Run))
}

// RunContext evaluates the query to completion under ctx and fills res
// with the run's statistics, which it returns. Cancellation is observed
// at every token-pull boundary — both here, before each preprojector
// step, and inside the tokenizer — so the run aborts within one token of
// ctx being cancelled and returns ctx.Err().
//
// A node-budget breach (Config.MaxBufferedNodes) returns the partial
// run statistics alongside the buffer.ErrBudget-wrapping error, so
// callers can report how far the run got before degrading; every other
// error returns a nil record.
func (e *Engine) RunContext(ctx context.Context, res *stats.Run) (*stats.Run, error) {
	e.live()
	err := e.run(ctx)
	if err != nil && !errors.Is(err, buffer.ErrBudget) {
		return nil, err
	}
	e.snapshot(res)
	return res, err
}

func (e *Engine) run(ctx context.Context) error {
	e.ctx = ctx
	e.done = ctx.Done()
	e.src.SetContext(ctx)
	if err := e.eval(e.plan.Rewritten.Body); err != nil {
		return err
	}
	// Epilogue: consume the remaining input. The paper's engines read
	// the complete stream (Fig. 5 times scale with document size even
	// for early-answer queries like Q1); it also lets deferred
	// sign-offs queued on still-open ancestors settle, establishing the
	// assignment/removal balance.
	if err := e.ensure(func() bool { return false }); err != nil {
		return err
	}
	e.buf.DrainPending()
	return e.out.Flush()
}

// snapshot fills res with the run statistics at the current state — the
// final result of a clean run, the partial result of a budget breach.
func (e *Engine) snapshot(res *stats.Run) {
	skip := e.src.SkipStats()
	*res = stats.Run{
		TokensProcessed:    e.proj.TokensProcessed(),
		PeakBufferedNodes:  e.buf.PeakNodes,
		PeakBufferedBytes:  e.buf.PeakBytes,
		FinalBufferedNodes: e.buf.CurrentNodes,
		TotalAppended:      e.buf.TotalAppended,
		TotalPurged:        e.buf.TotalPurged,
		OutputBytes:        e.out.BytesWritten(),
		BytesSkipped:       skip.BytesSkipped,
		TagsSkipped:        skip.TagsSkipped,
		SubtreesSkipped:    skip.SubtreesSkipped,
	}
	if e.join != nil {
		res.JoinProbeTuples = int64(len(e.join.groups))
		res.JoinBuildTuples = int64(e.join.table.Len())
		res.JoinMatches = e.join.matches
	}
	res.Series = e.series
}

// CheckBalance verifies the role assignment/removal balance after Run
// (exposed for tests and the property harness).
func (e *Engine) CheckBalance() error {
	e.live()
	return e.buf.CheckBalance()
}

// Release hands the engine's pooled resources — source scratch
// buffers, the sink's write buffer and the buffer manager's node
// slabs — back to their pools, and the engine itself to the engine
// pool: New reuses its buffer manager, preprojector and scratch with
// their capacities, up to cursor.MaxScratch each. Nothing of the run
// stays reachable from a released engine — no source, sink, plan, node
// or value string. Call it once per engine, after Run's result has been
// consumed and the buffer is no longer inspected; the engine is unusable
// afterwards, and under go test any use panics.
func (e *Engine) Release() {
	e.live()
	e.src.Release()
	e.out.Release()
	e.buf.Release()
	e.proj.Release()
	clear(e.env)
	clear(e.vals[:cap(e.vals)])
	clear(e.attrs[:cap(e.attrs)])
	clear(e.paths)
	clear(e.pending[:cap(e.pending)])
	e.jr.release()
	*e = Engine{
		buf:       e.buf,
		proj:      e.proj,
		jr:        e.jr,
		env:       e.env[:0],
		vals:      cursor.Scratch(e.vals),
		attrs:     cursor.Scratch(e.attrs),
		paths:     e.paths[:0],
		signedOff: cursor.Scratch(e.signedOff),
		held:      cursor.Scratch(e.held),
		pending:   cursor.Scratch(e.pending),
		released:  true,
	}
	enginePool.Put(e)
}

// ensure pulls input through the preprojector until pred is satisfied
// or the stream ends, then lets deferred sign-offs whose subtrees
// completed take effect. This is the "blocked evaluator ↔ buffer
// manager ↔ preprojector" request chain of the paper's Fig. 2. With
// tracing on, the whole pull counts into PhaseStream unless an
// enclosing span (the join operator's scan) already owns the interval.
func (e *Engine) ensure(pred func() bool) error {
	if e.cfg.Timer == nil || e.inSpan {
		return e.ensureLoop(pred)
	}
	e.inSpan = true
	start := time.Now()
	err := e.ensureLoop(pred)
	e.cfg.Timer.Add(obs.PhaseStream, time.Since(start))
	e.inSpan = false
	return err
}

// span times fn into phase p when tracing is on; nested spans attribute
// to the outermost phase.
func (e *Engine) span(p obs.Phase, fn func() error) error {
	if e.cfg.Timer == nil || e.inSpan {
		return fn()
	}
	e.inSpan = true
	start := time.Now()
	err := fn()
	e.cfg.Timer.Add(p, time.Since(start))
	e.inSpan = false
	return err
}

func (e *Engine) ensureLoop(pred func() bool) error {
	for !pred() {
		if err := e.poll(); err != nil {
			return err
		}
		ok, err := e.proj.Step()
		if err != nil {
			return err
		}
		if n := e.cfg.RecordEvery; n > 0 && ok && e.src.TokenCount()%n == 0 {
			e.series = append(e.series, stats.Point{Token: e.src.TokenCount(),
				Nodes: e.buf.CurrentNodes, Bytes: e.buf.CurrentBytes + e.buf.HeldBytes})
		}
		// The budget flag is tripped inside the buffer's node allocator;
		// checking it once per pulled token keeps enforcement off the
		// per-node hot path while still aborting within one token of the
		// breach.
		if err := e.buf.BudgetErr(); err != nil {
			return err
		}
		// A build tuple closed: it goes into the join's table at once,
		// and its nodes go with it.
		if len(e.buf.Watched) != 0 {
			if err := e.takeTuples(); err != nil {
				return err
			}
		}
		if !ok {
			// input exhausted: the virtual root is now complete
			e.buf.Root.Closed = true
			break
		}
	}
	e.buf.DrainPending()
	return nil
}

// poll is the lock-free cancellation check: nil while the run may
// continue, ctx.Err() once the context is done.
func (e *Engine) poll() error {
	if e.done != nil {
		select {
		case <-e.done:
			return e.ctx.Err()
		default:
		}
	}
	return nil
}

// ensureClosed blocks until n's subtree is fully buffered.
func (e *Engine) ensureClosed(n *buffer.Node) error {
	return e.ensure(func() bool { return n.Closed })
}

// node returns the current binding of a variable slot.
func (e *Engine) node(slot int) *buffer.Node { return e.env[slot].Node() }

func (e *Engine) eval(expr xqast.Expr) error {
	switch expr := expr.(type) {
	case *xqast.Empty:
		return nil
	case *xqast.Sequence:
		for _, item := range expr.Items {
			if err := e.eval(item); err != nil {
				return err
			}
		}
		return nil
	case *xqast.StringLit:
		e.out.Text(expr.Value)
		return nil
	case *xqast.Element:
		attrs, err := e.evalAttrs(expr.Attrs)
		if err != nil {
			return err
		}
		e.out.StartElement(expr.Name, attrs)
		if err := e.eval(expr.Content); err != nil {
			return err
		}
		e.out.EndElement(expr.Name)
		return nil
	case *xqast.VarRef:
		return e.emit(e.node(expr.Slot), xpath.Path{}, expr.Forward)
	case *xqast.PathExpr:
		return e.emit(e.node(expr.Slot), expr.Path, expr.Forward)
	case *xqast.ForExpr:
		return e.evalFor(expr)
	case *xqast.IfExpr:
		holds, err := e.decide(expr)
		if err != nil {
			return err
		}
		if holds {
			return e.eval(expr.Then)
		}
		return e.eval(expr.Else)
	case *xqast.AggExpr:
		return e.evalAgg(expr)
	case *xqast.SignOff:
		// Role removal plus garbage collection, deferred until the
		// binding's close tag has been read while its subtree is still
		// open (DESIGN.md §3) — unless the plan proved the step prunable:
		// then the role stops matching inside the open binding, and the
		// removal runs at once over what is buffered, which is all the
		// role will ever hold there.
		if e.signedOff[expr.Role] {
			e.signedOff[expr.Role] = false
			return nil
		}
		base := e.node(expr.Slot)
		if expr.Prune && e.prune && !base.Closed && e.proj.Prune(base, expr.Role) {
			e.buf.SignOffNow(base, expr.Path, expr.Role)
			return nil
		}
		e.buf.QueueSignOff(base, expr.Path, expr.Role)
		return nil
	default:
		return fmt.Errorf("engine: unknown expression %T", expr)
	}
}

// splitAttr splits an attribute-final path into its element path and
// the attribute name; ok is false for any other path. The element path
// shares the step slice, which is never written.
func splitAttr(p xpath.Path) (elems xpath.Path, attr string, ok bool) {
	if !p.EndsWithAttribute() {
		return p, "", false
	}
	last := len(p.Steps) - 1
	return xpath.Path{Steps: p.Steps[:last:last]}, p.Steps[last].Test.Name, true
}

// emit writes the subtrees (or attribute values) that path selects
// from base, in document order: base's own subtree for an empty path, an
// output variable. A stream expression (forward set) on an open base is
// forwarded when the run prunes — so no recorder counts its tokens, and
// the projection-only engine keeps the buffered path; any other waits
// for base's close. Serializing evaluates no path, so the buffer's match
// scratch stays valid across the loop.
func (e *Engine) emit(base *buffer.Node, path xpath.Path, forward *xqast.SignOff) error {
	if forward != nil && e.prune && !base.Closed {
		return e.forward(base, path, forward)
	}
	if err := e.ensureClosed(base); err != nil {
		return err
	}
	if elems, attr, ok := splitAttr(path); ok {
		for _, m := range e.buf.Matches(base, elems) {
			if v, ok := m.Node.Attr(attr); ok {
				e.out.Text(v)
			}
		}
		return nil
	}
	for _, m := range e.buf.Matches(base, path) {
		buffer.Serialize(m.Node, e.out)
	}
	return nil
}

// forward evaluates a stream output expression on its open binding base
// (DESIGN.md §3, "Stream-through output"). It has the preprojector take
// the forwarding up and writes what the buffer holds of the matches, in
// document order: the closed ones, then the first open one up to its
// last buffered child. Every match after that one lies inside it, so it
// is written again after it closes and keeps its derivations; the
// others' derivations of the output role through base are removed at
// once, and the sign-off statement that follows in the iteration is
// marked done. Then forward pulls the rest of base, the preprojector
// writing every later token of an outermost match to the sink; each
// time such a match closes with matches nested in it, those are written
// from the buffer and their own derivations removed.
func (e *Engine) forward(base *buffer.Node, path xpath.Path, so *xqast.SignOff) error {
	e.proj.Forward(base, path, so.Role, e.out)
	held := append(e.held[:0], e.buf.Matches(base, path)...)
	e.held = held
	written := len(held)
	for i, m := range held {
		buffer.Serialize(m.Node, e.out)
		if !m.Node.Closed {
			written = i + 1
			break
		}
	}
	for _, m := range held[written:] {
		e.proj.Defer(m.Node, m.Count)
	}
	for _, m := range held[:written] {
		e.buf.SignOffSubtree(m.Node, so.Role, m.Count)
	}
	clear(held)
	e.signedOff[so.Role] = true
	var err error
	for err == nil && !base.Closed {
		if err = e.ensure(func() bool { return base.Closed || e.proj.Ready() }); err == nil && e.proj.Ready() {
			nested := e.proj.TakeNested()
			for _, m := range nested {
				buffer.Serialize(m.Node.Node(), e.out)
			}
			for _, m := range nested {
				e.buf.SignOffSubtree(m.Node.Node(), so.Role, m.Count)
			}
		}
	}
	e.proj.StopForward()
	return err
}

// evalFor runs a single-step for-loop: bindings are pulled one at a
// time, and each is unpinned (and thereby GC-eligible) as soon as its
// body has run, before the next one is pulled.
func (e *Engine) evalFor(f *xqast.ForExpr) error {
	if handled, err := e.interceptFor(f); handled {
		return err
	}
	return e.loop(f, false)
}

// loop is the cursor loop behind evalFor. With capture set — the join
// operator's probe loop — each binding's body is evaluated into a
// capture sink (captureProbeBinding) instead of the live one. A binding
// is pinned only while its body runs: then it is purged at once if
// nothing else holds it, or at its close tag if that is still to come,
// and the cursor goes on from its position.
func (e *Engine) loop(f *xqast.ForExpr, capture bool) error {
	base := e.node(f.In.Slot)
	step := f.In.Path.Steps[0]
	var pos position
	for {
		cur, err := e.pullBinding(base, pos, step)
		if err != nil || cur == nil {
			return err
		}
		e.buf.Pin(cur)
		// Evaluation over already-buffered bindings pulls no tokens (a
		// blocking join like XMark Q8 can spend seconds here), so ensure's
		// cancellation check never fires; poll once per binding to keep
		// the abort latency bounded by one loop body.
		if err = e.poll(); err == nil {
			e.env[f.Slot] = buffer.Hold(cur)
			if capture {
				err = e.captureProbeBinding(f)
			} else {
				err = e.eval(f.Body)
			}
			e.env[f.Slot] = buffer.Handle{}
		}
		pos = position{at: buffer.Hold(cur), seq: cur.Seq()}
		e.buf.Unpin(cur)
		if err != nil {
			return err
		}
	}
}

// position is a loop cursor's place: its last binding, which is not
// pinned and may be purged, and that binding's append ordinal, from
// which buffer.Resume finds the place once it is. The zero position is
// before the first binding.
type position struct {
	at  buffer.Handle
	seq uint64
}

// from returns the node the cursor continues from: nil before the first
// binding, the last binding while it is buffered, and else the last
// node still buffered before it (base when there is none).
func (p position) from(base *buffer.Node, descend bool) *buffer.Node {
	switch {
	case p.at == buffer.Handle{}:
		return nil
	case p.at.Live():
		return p.at.Node()
	}
	return buffer.Resume(base, p.seq, descend)
}

// pullBinding blocks until the loop cursor can advance past pos or
// base's subtree is complete, and returns the next binding, nil when
// there is none.
func (e *Engine) pullBinding(base *buffer.Node, pos position, step xpath.Step) (*buffer.Node, error) {
	var nxt *buffer.Node
	err := e.ensure(func() bool {
		nxt = e.nextBinding(base, pos, step)
		return nxt != nil || base.Closed
	})
	return nxt, err
}

// nextBinding advances a loop cursor over the buffered tree.
func (e *Engine) nextBinding(base *buffer.Node, pos position, step xpath.Step) *buffer.Node {
	if step.FirstOnly && pos.at != (buffer.Handle{}) {
		return nil
	}
	switch step.Axis {
	case xpath.Child:
		return buffer.NextMatchingChild(base, pos.from(base, false), step.Test)
	case xpath.Descendant:
		return buffer.NextMatchingDescendant(base, pos.from(base, true), step.Test, false)
	case xpath.DescendantOrSelf:
		return buffer.NextMatchingDescendant(base, pos.from(base, true), step.Test, true)
	default:
		return nil
	}
}

// evalAttrs computes the attribute list of a constructor into the
// engine's scratch, evaluating value templates against the environment.
// The list is valid until the next constructor's, which is all a Sink
// may rely on (event.Sink.StartElement).
func (e *Engine) evalAttrs(attrs []xqast.AttrTemplate) ([]event.Attr, error) {
	if len(attrs) == 0 {
		return nil, nil
	}
	out := e.attrs[:0]
	for _, a := range attrs {
		v := a.Lit
		if a.Expr != nil {
			vals, err := e.pathValues(a.Expr)
			if err != nil {
				return nil, err
			}
			v = xqvalue.JoinSpace(vals)
		}
		out = append(out, event.Attr{Name: a.Name, Value: v})
	}
	e.attrs = out
	return out, nil
}

// evalAgg evaluates an aggregation over the selected values.
func (e *Engine) evalAgg(c *xqast.AggExpr) error {
	vals, err := e.pathValues(&c.Arg)
	if err != nil {
		return err
	}
	if s, ok := xqvalue.Aggregate(c.Fn, vals); ok {
		e.out.Text(s)
	}
	return nil
}

// --- conditions ----------------------------------------------------------

// pending is an if-expression whose condition is being decided, and its
// outcome once done. epoch is the count of the events that can decide
// the condition (Engine.epoch) when it was last tried; appends marks a
// condition that a newly buffered node can decide.
type pending struct {
	ifx                  *xqast.IfExpr
	holds, done, appends bool
	epoch                int64
}

// decide blocks until the condition of ifx is certain and returns it
// (DESIGN.md §3, "Decision timing"). After every pulled token it tries
// the condition (tryCond); while it pulls, the condition is also pending
// for RunEnded, which the preprojector calls inside the source's pull
// when a watched run ends at a dead child. Either way the decision runs
// the sign-offs of the branch not taken at once (settle).
func (e *Engine) decide(ifx *xqast.IfExpr) (bool, error) {
	i := len(e.pending)
	e.pending = append(e.pending, pending{ifx: ifx, appends: appendDecides(ifx.Cond), epoch: -1})
	err := e.ensure(func() bool { return e.try(i) })
	if err == nil {
		// The pull stops at the end of input without asking again; all
		// is closed there, the virtual root without a close tag.
		e.pending[i].epoch = -1
		e.try(i)
	}
	d := e.pending[i]
	e.pending = e.pending[:i]
	return d.holds, err
}

// RunEnded implements projection.Decider: a watched run has ended at a
// dead child, and the next sibling may be live, so every pending
// condition that is certain now is decided before it is answered.
func (e *Engine) RunEnded() {
	for i := range e.pending {
		e.try(i)
	}
}

// try decides the i-th pending condition if it is certain now, and
// reports whether it is decided. It tries the condition again only when
// an event that can decide it happened since the last try.
func (e *Engine) try(i int) bool {
	d := &e.pending[i]
	if epoch := e.epoch(d.appends); !d.done && epoch != d.epoch {
		d.epoch = epoch
		if holds, ok := e.tryCond(d.ifx.Cond); ok {
			d.holds, d.done = holds, true
			e.settle(d.ifx, holds)
		}
	}
	return d.done
}

// epoch counts the events that can decide a pending condition: a
// buffered element closing — a comparison's witness, or a binding whose
// value sequences are then whole — a watched run ending, and, with
// appends set, a node being buffered — an exists's witness, or an
// element with a compared attribute or a compared text node.
func (e *Engine) epoch(appends bool) int64 {
	n := e.buf.TotalClosed + e.proj.RunEnds()
	if appends {
		n += e.buf.TotalAppended
	}
	return n
}

// appendDecides reports whether a newly buffered node can decide c: it
// has an exists, or compares attribute values or text nodes, which are
// whole when buffered.
func appendDecides(c xqast.Cond) bool {
	switch c := c.(type) {
	case *xqast.NotCond:
		return appendDecides(c.C)
	case *xqast.AndCond:
		return appendDecides(c.L) || appendDecides(c.R)
	case *xqast.OrCond:
		return appendDecides(c.L) || appendDecides(c.R)
	case *xqast.ExistsCond:
		return true
	case *xqast.CompareCond:
		return appendOperandDecides(c.L) || appendOperandDecides(c.R)
	}
	return false
}

func appendOperandDecides(o xqast.Operand) bool {
	return o.Kind == xqast.OperandPath && (o.Path.Path.EndsWithAttribute() || o.Path.Path.EndsWithText())
}

// settle runs, on the open bindings of a pruning run, the sign-offs of
// the roles that only the branch not taken reads (xqast.IfExpr.Untaken):
// the roles stop matching inside the binding, as a prunable sign-off's
// do, and the statements that follow have nothing left to do.
func (e *Engine) settle(ifx *xqast.IfExpr, holds bool) {
	if !e.prune {
		return
	}
	untaken := ifx.Untaken[0]
	if holds {
		untaken = ifx.Untaken[1]
	}
	for _, so := range untaken {
		base := e.node(so.Slot)
		if !base.Closed && e.proj.Prune(base, so.Role) {
			e.buf.SignOffNow(base, so.Path, so.Role)
			e.signedOff[so.Role] = true
		}
	}
}

// tryCond evaluates c in three values: ok is false while c is not yet
// certain. Each atom is decided at the first event its timing allows
// (xqast.Decision). A pruning run decides a conjunction or disjunction
// as soon as either decided side settles it; any other run reads its
// sides left to right, each once decided, and keeps the close timing of
// its per-token profile.
func (e *Engine) tryCond(c xqast.Cond) (holds, ok bool) {
	switch c := c.(type) {
	case *xqast.BoolLit:
		return c.Value, true
	case *xqast.NotCond:
		v, ok := e.tryCond(c.C)
		return !v, ok
	case *xqast.AndCond:
		l, lok := e.tryCond(c.L)
		if lok && !l {
			return false, true
		}
		if !lok && !e.prune {
			return false, false
		}
		r, rok := e.tryCond(c.R)
		if rok && !r {
			return false, true
		}
		return true, lok && rok
	case *xqast.OrCond:
		l, lok := e.tryCond(c.L)
		if lok && l {
			return true, true
		}
		if !lok && !e.prune {
			return false, false
		}
		r, rok := e.tryCond(c.R)
		if rok && r {
			return true, true
		}
		return false, lok && rok
	case *xqast.ExistsCond:
		return e.tryExists(c)
	case *xqast.CompareCond:
		return e.tryCompare(c)
	default:
		panic(fmt.Sprintf("engine: unknown condition %T", c))
	}
}

// tryExists decides exists(path) true at its first witness, which the
// condition's first-witness projection path (the paper's r4) buffers,
// and false once path's value sequence is final.
func (e *Engine) tryExists(c *xqast.ExistsCond) (holds, ok bool) {
	pe := &c.Arg
	if pe.Path.IsEmpty() || e.witness(e.node(pe.Slot), pe.Path) {
		return true, true
	}
	return false, e.final(pe, c.Decide)
}

// witness reports whether path — element path or attribute-final — has
// a match from base right now.
func (e *Engine) witness(base *buffer.Node, path xpath.Path) bool {
	elems, attr, ok := splitAttr(path)
	if !ok {
		return buffer.Exists(base, path)
	}
	for _, m := range e.buf.Matches(base, elems) {
		if _, ok := m.Node.Attr(attr); ok {
			return true
		}
	}
	return false
}

// tryCompare implements XPath-1.0-style existential general comparison
// over string values, switching to numeric comparison when a numeric
// literal is involved or the operator is an ordering. Both operands'
// value sequences are built back to back in the one scratch slice; a
// literal is simply a sequence of one. A pair that holds among the
// values already final decides it true; it is false once both
// sequences are whole.
func (e *Engine) tryCompare(c *xqast.CompareCond) (holds, ok bool) {
	witnesses := e.prune && c.Decide >= xqast.DecideWitness
	vals := e.appendOperand(e.vals[:0], &c.L, witnesses)
	nl := len(vals)
	vals = e.appendOperand(vals, &c.R, witnesses)
	e.vals = vals[:0]
	numeric := c.L.Kind == xqast.OperandNumber || c.R.Kind == xqast.OperandNumber ||
		c.Op == xqast.CmpLt || c.Op == xqast.CmpLe || c.Op == xqast.CmpGt || c.Op == xqast.CmpGe
	if xqvalue.ExistsPair(cmpOp(c.Op), vals[:nl], vals[nl:], numeric) {
		return true, true
	}
	return false, e.operandFinal(&c.L, c.Decide) && e.operandFinal(&c.R, c.Decide)
}

// appendOperand appends the values of one comparison operand that are
// final now: a literal, all of a path's once its sequence is final (at
// its binding's close, or at the start tag for the binding's own
// attribute), and before that, with witnesses set, those of its matches
// (appendValues).
func (e *Engine) appendOperand(vals []string, o *xqast.Operand, witnesses bool) []string {
	if o.Kind != xqast.OperandPath {
		return append(vals, o.Str)
	}
	base := e.node(o.Path.Slot)
	switch {
	case e.final(&o.Path, xqast.DecideStartTag):
		return e.appendValues(vals, base, o.Path.Path, false)
	case witnesses:
		return e.appendValues(vals, base, o.Path.Path, true)
	}
	return vals
}

// operandFinal reports whether a comparison operand's value sequence is
// whole.
func (e *Engine) operandFinal(o *xqast.Operand, d xqast.Decision) bool {
	return o.Kind != xqast.OperandPath || e.final(&o.Path, d)
}

// final is the decision-time function (DESIGN.md §3, "Decision timing"):
// it reports whether pe's value sequence is whole now, for a use whose
// plan timing is d. It is once pe's binding has closed. Before that only
// where a decision can prune — the run prunes and the binding's
// sign-offs are prunable — because anywhere else an early decision
// would only queue the binding's sign-offs, which then run at the next
// binding instead of at the close: at the start tag for an attribute of
// the binding itself, which arrived with it (a JSON source delivers
// none, which is as whole), and for d = DecideRunEnd on a source that
// states runs once the run of the path's first step has ended.
func (e *Engine) final(pe *xqast.PathExpr, d xqast.Decision) bool {
	base := e.node(pe.Slot)
	switch {
	case base.Closed:
		return true
	case !e.prune || !e.plan.PruneSlots[pe.Slot]:
		return false
	case len(pe.Path.Steps) == 1 && pe.Path.EndsWithAttribute():
		return true
	case d == xqast.DecideRunEnd && e.runs:
		return e.proj.RunEnded(base, pe.Path.Steps[0].Test.Name)
	}
	return false
}

// cmpOp maps syntax-level operators to the shared value semantics.
func cmpOp(op xqast.CmpOp) xqvalue.CmpOp {
	switch op {
	case xqast.CmpEq:
		return xqvalue.Eq
	case xqast.CmpNe:
		return xqvalue.Ne
	case xqast.CmpLt:
		return xqvalue.Lt
	case xqast.CmpLe:
		return xqvalue.Le
	case xqast.CmpGt:
		return xqvalue.Gt
	default:
		return xqvalue.Ge
	}
}

// appendPathValues appends a path expression's value sequence to vals:
// present attribute values for attribute-final paths, string values of
// the selected nodes otherwise. It blocks until the sequence is whole
// (final).
func (e *Engine) appendPathValues(vals []string, pe *xqast.PathExpr) ([]string, error) {
	base := e.node(pe.Slot)
	if !e.final(pe, xqast.DecideStartTag) {
		if err := e.ensureClosed(base); err != nil {
			return vals, err
		}
	}
	return e.appendValues(vals, base, pe.Path, false), nil
}

// appendValues appends the value sequence of path from base as far as
// it is buffered; with closed set, only the values that are final while
// base is open: the attributes of matched elements, which came with
// their start tags, and the string values of the matches that have
// closed.
func (e *Engine) appendValues(vals []string, base *buffer.Node, path xpath.Path, closed bool) []string {
	if elems, attr, ok := splitAttr(path); ok {
		for _, m := range e.buf.Matches(base, elems) {
			if v, ok := m.Node.Attr(attr); ok {
				vals = append(vals, v)
			}
		}
		return vals
	}
	for _, m := range e.buf.Matches(base, path) {
		if !closed || m.Node.Closed {
			vals = append(vals, m.Node.StringValue())
		}
	}
	return vals
}

// pathValues evaluates a path expression's value sequence into the
// engine's scratch; the result is valid until the next value sequence
// is built.
func (e *Engine) pathValues(pe *xqast.PathExpr) ([]string, error) {
	vals, err := e.appendPathValues(e.vals[:0], pe)
	e.vals = vals[:0]
	return vals, err
}
