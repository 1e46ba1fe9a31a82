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
// (internal/baseline) reads MaxBufferedNodes. Whether a run skips
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
	// Recorder, if non-nil, samples the buffer size per input token; the
	// samples are returned as the run's Series. A recording run does not
	// skip subtrees (DESIGN.md §7): skipped tokens would be missing from
	// the per-token plot.
	Recorder *stats.Recorder
	// Timer, if non-nil, accumulates per-phase wall time (DESIGN.md
	// §11): ensure's pull loop into PhaseStream, the join operator's
	// scan and replay into PhaseJoinBuild/PhaseJoinProbe; core.Run adds
	// setup and the eval remainder and returns the phases as the run's
	// Trace. A nil Timer is the default and costs nothing on the hot
	// path.
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
	// join is the streaming join operator's run state when the plan
	// carries a detected join; nil otherwise (then every loop runs
	// nested).
	join *joinRun
	// inSpan marks that a trace span is open, so nested timed sections
	// (ensure calls inside the join operator's scan) attribute to the
	// enclosing phase instead of double-counting.
	inSpan bool
	// env is the variable environment, indexed by the slots the analysis
	// resolved every variable to (xqast.ForExpr.Slot): slot 0 is the
	// document root, a loop's slot holds its current binding. Bindings
	// are pinned, so the handles only assert (under go test) that the
	// pin really kept the node.
	env []buffer.Handle
	// vals is the scratch the value sequences of conditions, aggregates
	// and attribute templates are built in; attrs is the one a
	// constructor's attribute list is built in.
	vals  []string
	attrs []event.Attr
	// prune is set when the run skips dead children and collects
	// garbage: then a condition that the start tag decides is decided
	// there, and a prunable sign-off on an open binding stops its role
	// from matching inside it (DESIGN.md §3). Recording runs, reference
	// plans that do not skip and the projection-only engine keep the
	// close-tag timing, so their per-token profiles do not move.
	prune bool
	// paths is the scratch the plan's role paths are handed to the
	// preprojector in.
	paths []xpath.Path
	// held is the scratch a forwarded expression's buffered matches are
	// copied into (forward).
	held []buffer.Match
	// signedOff marks, per role, a stream output expression that has
	// forwarded its binding and run the role's sign-off early; the
	// sign-off statement that follows in the binding's iteration then
	// has nothing left to do (DESIGN.md §3, "Stream-through output").
	signedOff []bool
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
	if rec := cfg.Recorder; rec != nil {
		proj.OnToken = func() {
			rec.Record(proj.TokensProcessed(), buf.CurrentNodes, buf.CurrentBytes)
		}
	} else {
		proj.EnableSkipping(plan.Automaton)
	}
	e.plan, e.cfg, e.src, e.out = plan, cfg, src, sink
	e.env = append(e.env[:0], make([]buffer.Handle, plan.Slots)...)
	e.signedOff = append(e.signedOff[:0], make([]bool, len(plan.Roles))...)
	e.env[0] = buffer.Hold(buf.Root)
	// EnableSkipping installs no skipper for a plan that does not skip.
	e.prune = cfg.Recorder == nil && plan.Automaton != nil && !cfg.DisableGC
	if plan.Join != nil {
		e.join = &joinRun{info: plan.Join}
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
		res.JoinBuildTuples = e.join.buildTuples
		res.JoinMatches = e.join.matches
	}
	if e.cfg.Recorder != nil {
		res.Series = e.cfg.Recorder.Points
	}
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
	*e = Engine{
		buf:       e.buf,
		proj:      e.proj,
		env:       e.env[:0],
		vals:      cursor.Scratch(e.vals),
		attrs:     cursor.Scratch(e.attrs),
		paths:     e.paths[:0],
		signedOff: cursor.Scratch(e.signedOff),
		held:      cursor.Scratch(e.held),
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
		// The budget flag is tripped inside the buffer's node allocator;
		// checking it once per pulled token keeps enforcement off the
		// per-node hot path while still aborting within one token of the
		// breach.
		if err := e.buf.BudgetErr(); err != nil {
			return err
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
		holds, err := e.evalCond(expr.Cond)
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
// time; the previous binding is unpinned (and thereby GC-eligible)
// before the body of the next one runs.
func (e *Engine) evalFor(f *xqast.ForExpr) error {
	if handled, err := e.interceptFor(f); handled {
		return err
	}
	return e.loop(f, false)
}

// loop is the cursor loop behind evalFor. With capture set — the join
// operator's probe loop — each binding's body is evaluated into a
// capture sink (captureProbeBinding) instead of the live one.
func (e *Engine) loop(f *xqast.ForExpr, capture bool) error {
	base := e.node(f.In.Slot)
	step := f.In.Path.Steps[0]

	cur, err := e.pullBinding(base, nil, step)
	if err != nil {
		return err
	}
	if cur != nil {
		e.buf.Pin(cur)
	}
	for cur != nil {
		// Evaluation over already-buffered bindings pulls no tokens (a
		// blocking join like XMark Q8 can spend seconds here), so ensure's
		// cancellation check never fires; poll once per binding to keep
		// the abort latency bounded by one loop body.
		err := e.poll()
		if err == nil {
			e.env[f.Slot] = buffer.Hold(cur)
			if capture {
				err = e.captureProbeBinding(f)
			} else {
				err = e.eval(f.Body)
			}
		}
		var nxt *buffer.Node
		if err == nil {
			nxt, err = e.pullBinding(base, cur, step)
		}
		if err != nil {
			e.buf.Unpin(cur)
			return err
		}
		if nxt != nil {
			e.buf.Pin(nxt)
		}
		e.buf.Unpin(cur)
		cur = nxt
	}
	e.env[f.Slot] = buffer.Handle{}
	return nil
}

// pullBinding blocks until the loop cursor can advance past prev (nil
// starts the loop) or base's subtree is complete, and returns the next
// binding, nil when there is none.
func (e *Engine) pullBinding(base, prev *buffer.Node, step xpath.Step) (*buffer.Node, error) {
	var nxt *buffer.Node
	err := e.ensure(func() bool {
		nxt = e.nextBinding(base, prev, step)
		return nxt != nil || base.Closed
	})
	return nxt, err
}

// nextBinding advances a loop cursor over the buffered tree.
func (e *Engine) nextBinding(base, prev *buffer.Node, step xpath.Step) *buffer.Node {
	if step.FirstOnly && prev != nil {
		return nil
	}
	switch step.Axis {
	case xpath.Child:
		return buffer.NextMatchingChild(base, prev, step.Test)
	case xpath.Descendant:
		return buffer.NextMatchingDescendant(base, prev, step.Test, false)
	case xpath.DescendantOrSelf:
		return buffer.NextMatchingDescendant(base, prev, step.Test, true)
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

func (e *Engine) evalCond(c xqast.Cond) (bool, error) {
	switch c := c.(type) {
	case *xqast.BoolLit:
		return c.Value, nil
	case *xqast.NotCond:
		v, err := e.evalCond(c.C)
		return !v, err
	case *xqast.AndCond:
		l, err := e.evalCond(c.L)
		if err != nil || !l {
			return false, err
		}
		return e.evalCond(c.R)
	case *xqast.OrCond:
		l, err := e.evalCond(c.L)
		if err != nil || l {
			return l, err
		}
		return e.evalCond(c.R)
	case *xqast.ExistsCond:
		return e.evalExists(c)
	case *xqast.CompareCond:
		return e.evalCompare(c)
	default:
		return false, fmt.Errorf("engine: unknown condition %T", c)
	}
}

// evalExists blocks until a witness appears or the base subtree is
// complete. The witness is guaranteed buffered by the condition's
// first-witness projection path (the paper's r4).
func (e *Engine) evalExists(c *xqast.ExistsCond) (bool, error) {
	base := e.node(c.Arg.Slot)
	if c.Arg.Path.IsEmpty() {
		return true, nil
	}
	if e.startTagged(&c.Arg) {
		return e.witness(base, c.Arg.Path), nil
	}
	if err := e.ensure(func() bool { return e.witness(base, c.Arg.Path) || base.Closed }); err != nil {
		return false, err
	}
	return e.witness(base, c.Arg.Path), nil
}

// startTagged reports whether pe is to be read at its binding's start
// tag: it names an attribute of the binding itself, which arrived with
// the start tag (a JSON source delivers none, which is as complete), and
// the decision can prune — the run prunes and the binding's sign-offs
// are prunable. Anywhere else a decision made before the close tag would
// only queue the binding's sign-offs, which then run at the next
// binding instead of at the close.
func (e *Engine) startTagged(pe *xqast.PathExpr) bool {
	return e.prune && e.plan.PruneSlots[pe.Slot] && len(pe.Path.Steps) == 1 && pe.Path.EndsWithAttribute()
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

// evalCompare implements XPath-1.0-style existential general comparison
// over string values, switching to numeric comparison when a numeric
// literal is involved or the operator is an ordering. Both operands'
// value sequences are built back to back in the one scratch slice; a
// literal is simply a sequence of one.
func (e *Engine) evalCompare(c *xqast.CompareCond) (bool, error) {
	vals, err := e.appendOperand(e.vals[:0], &c.L)
	nl := len(vals)
	if err == nil {
		vals, err = e.appendOperand(vals, &c.R)
	}
	e.vals = vals[:0]
	if err != nil {
		return false, err
	}
	numeric := c.L.Kind == xqast.OperandNumber || c.R.Kind == xqast.OperandNumber ||
		c.Op == xqast.CmpLt || c.Op == xqast.CmpLe || c.Op == xqast.CmpGt || c.Op == xqast.CmpGe
	return xqvalue.ExistsPair(cmpOp(c.Op), vals[:nl], vals[nl:], numeric), nil
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
// the selected nodes otherwise. It blocks until the base subtree is
// fully buffered, unless the start tag decides the sequence (startTagged).
func (e *Engine) appendPathValues(vals []string, pe *xqast.PathExpr) ([]string, error) {
	base := e.node(pe.Slot)
	if !e.startTagged(pe) {
		if err := e.ensureClosed(base); err != nil {
			return vals, err
		}
	}
	if elems, attr, ok := splitAttr(pe.Path); ok {
		for _, m := range e.buf.Matches(base, elems) {
			if v, ok := m.Node.Attr(attr); ok {
				vals = append(vals, v)
			}
		}
		return vals, nil
	}
	for _, m := range e.buf.Matches(base, pe.Path) {
		vals = append(vals, m.Node.StringValue())
	}
	return vals, nil
}

// pathValues evaluates a path expression's value sequence into the
// engine's scratch; the result is valid until the next value sequence
// is built.
func (e *Engine) pathValues(pe *xqast.PathExpr) ([]string, error) {
	vals, err := e.appendPathValues(e.vals[:0], pe)
	e.vals = vals[:0]
	return vals, err
}

// appendOperand appends one comparison operand's value sequence.
func (e *Engine) appendOperand(vals []string, o *xqast.Operand) ([]string, error) {
	switch o.Kind {
	case xqast.OperandString, xqast.OperandNumber:
		return append(vals, o.Str), nil
	case xqast.OperandPath:
		return e.appendPathValues(vals, &o.Path)
	default:
		return vals, fmt.Errorf("engine: unknown operand kind %d", o.Kind)
	}
}
