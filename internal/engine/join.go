package engine

import (
	"fmt"
	"slices"

	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/cursor"
	"gcx/internal/join"
	"gcx/internal/obs"
	"gcx/internal/xqast"
)

// joinRun is the per-run state of the streaming join operator
// (DESIGN.md §10). The engine's evalFor intercepts the plan's probe and
// build loops: probe bindings stream through with their output events
// captured into groups, the build loop is skipped during capture (only
// its splice position is recorded), each build tuple's key values are
// taken at its close, where the nodes only the key reads are signed
// off, and at end of input the held tuples' payloads go with their keys
// into a hash table and are replayed into the groups — the nested-loop
// event sequence in O(probe + build + matches). The engine keeps one
// joinRun across runs, so its slabs and table grow only past the
// largest join they have held.
type joinRun struct {
	info *analysis.JoinInfo
	// cap is the run's one capture: every probe body's events, then
	// each build tuple's payload in turn until the table has copied it.
	// A body is being captured exactly while e.out is &cap; spliceAt is
	// where it reached the build loop, -1 before it does.
	cap      join.Capture
	spliceAt int32
	keys     []string // the key slab: probe join-key values back to back
	groups   []join.Group
	// tuples are the build tuples taken at their close, in document
	// order, each with its key values, a range of bkeys.
	tuples []buildTuple
	bkeys  []string
	table  join.Table

	buildTuples int64
	matches     int64
}

// buildTuple is a build tuple held for the table: the tuple's binding
// role keeps it buffered until the end of the run.
type buildTuple struct {
	node         buffer.Handle
	keyLo, keyHi int32
}

// release empties j for the next run, keeping its slabs within
// cursor.MaxScratch and nothing of this run reachable.
func (j *joinRun) release() {
	j.cap.Reset()
	j.table.Reset()
	clear(j.keys[:cap(j.keys)])
	clear(j.bkeys[:cap(j.bkeys)])
	clear(j.tuples[:cap(j.tuples)])
	*j = joinRun{
		cap:    j.cap,
		table:  j.table,
		keys:   cursor.Scratch(j.keys),
		bkeys:  cursor.Scratch(j.bkeys),
		tuples: cursor.Scratch(j.tuples),
		groups: cursor.Scratch(j.groups),
	}
}

// takeTuples takes the build tuples that closed since the last call:
// each one's key values go into the key slab, held with the tuple, and
// the roles only the key reads are signed off on it. Their top-level
// statements then have nothing left to do.
func (e *Engine) takeTuples() {
	j := e.join
	for _, h := range e.buf.Watched {
		t := h.Node()
		lo := int32(len(j.bkeys))
		j.bkeys = e.appendValues(j.bkeys, t, j.info.BuildKey)
		j.tuples = append(j.tuples, buildTuple{node: h, keyLo: lo, keyHi: int32(len(j.bkeys))})
		for _, so := range j.info.KeyRelease {
			e.buf.SignOffNow(t, so.Path, so.Role)
			e.signedOff[so.Role] = true
		}
	}
	e.buf.Watched = e.buf.Watched[:0]
}

// interceptFor routes the plan's join loops away from nested
// evaluation. It reports whether it handled the loop.
func (e *Engine) interceptFor(f *xqast.ForExpr) (bool, error) {
	j := e.join
	if j == nil {
		return false, nil
	}
	switch {
	case f == j.info.BuildHead && e.out == &j.cap:
		// The probe body reached the build loop: record where the
		// matched payloads splice into this binding's event stream and
		// skip the nested scan entirely.
		if j.spliceAt >= 0 {
			return true, fmt.Errorf("engine: join build loop reached twice in one probe binding")
		}
		j.spliceAt = j.cap.Mark()
		return true, nil
	case f == j.info.ProbeHead:
		// A single-step probe path is its own probe loop.
		if err := e.loop(f, f == j.info.ProbeLoop); err != nil {
			return true, err
		}
		return true, e.finalizeJoin()
	case f == j.info.ProbeLoop:
		return true, e.loop(f, true)
	}
	return false, nil
}

// captureProbeBinding evaluates one probe binding's body into the run's
// capture and appends the resulting group. The join keys are extracted
// first, straight into the key slab: sign-offs inside the body may
// purge parts of the probe record as they execute.
func (e *Engine) captureProbeBinding(f *xqast.ForExpr) error {
	j := e.join
	klo := int32(len(j.keys))
	keys, err := e.appendPathValues(j.keys, &xqast.PathExpr{Slot: j.info.ProbeSlot, Path: j.info.ProbeKey})
	j.keys = keys
	if err != nil {
		return err
	}
	lo := j.cap.Mark()
	j.spliceAt = -1
	if err := e.captureInto(f.Body); err != nil {
		return err
	}
	g := join.Group{KeyLo: klo, KeyHi: int32(len(keys)), Lo: lo, Mid: j.spliceAt, Hi: j.cap.Mark(), Splice: j.spliceAt >= 0}
	if !g.Splice {
		g.Mid = g.Hi
	}
	j.groups = append(j.groups, g)
	return nil
}

// captureInto evaluates expr with its output redirected into j.cap.
func (e *Engine) captureInto(expr xqast.Expr) error {
	saved := e.out
	e.out = &e.join.cap
	err := e.eval(expr)
	e.out = saved
	return err
}

// finalizeJoin runs once the probe chain is exhausted: pull to end of
// input (the build side is complete only then — a later sibling of any
// build ancestor could still contribute tuples), capture each held
// tuple's payload into the table, and emit the groups. The payload
// nodes are still buffered here because their hoisted sign-offs are
// top-level statements that execute after the output wrapper.
func (e *Engine) finalizeJoin() error {
	j := e.join
	if err := e.ensureClosed(e.buf.Root); err != nil {
		return err
	}

	if slices.ContainsFunc(j.groups, func(g join.Group) bool { return g.Splice }) {
		// The build-side materialization is its own trace phase; the
		// ensure calls inside the payload's evaluation find their
		// subtrees already buffered, and the span guard keeps them out
		// of PhaseStream.
		err := e.span(obs.PhaseJoinBuild, func() error {
			base := j.cap.Mark()
			for _, t := range j.tuples {
				// A large build side is processed without pulling input,
				// so the per-token poll inside ensure never runs here.
				if err := e.poll(); err != nil {
					return err
				}
				e.env[j.info.BuildSlot] = t.node
				if err := e.captureInto(j.info.Then); err != nil {
					return err
				}
				j.table.Add(j.bkeys[t.keyLo:t.keyHi], j.cap.Ops(base, j.cap.Mark()))
				j.cap.Truncate(base)
			}
			e.env[j.info.BuildSlot] = buffer.Handle{}
			j.buildTuples = int64(j.table.Len())
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Replay in probe document order; matched payloads in build document
	// order — exactly the nested-loop emission sequence.
	return e.span(obs.PhaseJoinProbe, func() error {
		for _, g := range j.groups {
			if err := e.poll(); err != nil {
				return err
			}
			j.cap.Replay(j.cap.Ops(g.Lo, g.Mid), e.out)
			if g.Splice {
				for _, ti := range j.table.Match(j.keys[g.KeyLo:g.KeyHi]) {
					j.cap.Replay(j.table.Payload(ti), e.out)
					j.matches++
				}
			}
			j.cap.Replay(j.cap.Ops(g.Mid, g.Hi), e.out)
		}
		return nil
	})
}
