package engine

import (
	"fmt"
	"time"
	"unsafe"

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
// captured into groups, and the build loop is skipped during capture
// (only its splice position is recorded). Each build tuple goes into a
// hash table at its close, its key values with its payload events, and
// every node it holds is signed off there; at end of input the groups
// replay with the matching payloads spliced in — the nested-loop event
// sequence in O(probe + build + matches). The engine keeps one joinRun
// across runs, so its slabs and table grow only past the largest join
// they have held.
type joinRun struct {
	info *analysis.JoinInfo
	// cap is the run's one capture: every probe body's events, and each
	// build tuple's payload until the table has copied it. A probe body
	// is being captured exactly while e.out is &cap; spliceAt is where
	// it reached the build loop, -1 before it does.
	cap      join.Capture
	spliceAt int32
	keys     []string // the key slab: probe join-key values back to back
	groups   []join.Group
	bkeys    []string // the key values of the build tuple being taken
	table    join.Table
	// slabBytes estimates the key slab and the groups (holdJoin).
	slabBytes int64

	matches int64
}

// release empties j for the next run, keeping its slabs within
// cursor.MaxScratch and nothing of this run reachable.
func (j *joinRun) release() {
	j.cap.Reset()
	j.table.Reset()
	clear(j.keys[:cap(j.keys)])
	clear(j.bkeys[:cap(j.bkeys)])
	*j = joinRun{
		cap:    j.cap,
		table:  j.table,
		keys:   cursor.Scratch(j.keys),
		bkeys:  cursor.Scratch(j.bkeys),
		groups: cursor.Scratch(j.groups),
	}
}

// takeTuples adds the build tuples that closed since the last call to
// the table: each one's key values and the events of THEN evaluated on
// it, which reads nothing but the tuple. Then it runs JoinInfo.Release
// on the tuple, which frees every node of it, and marks the top-level
// statements of those sign-offs done. With tracing on, this counts into
// PhaseJoinBuild and out of the PhaseStream interval of the ensure that
// pulled the closing token.
func (e *Engine) takeTuples() error {
	if t := e.cfg.Timer; t != nil {
		defer func(start time.Time) {
			d := time.Since(start)
			t.Add(obs.PhaseJoinBuild, d)
			t.Add(obs.PhaseStream, -d)
		}(time.Now())
	}
	j := e.join
	for _, h := range e.buf.Watched {
		t := h.Node()
		j.bkeys = e.appendValues(j.bkeys[:0], t, j.info.BuildKey, false)
		e.env[j.info.BuildSlot] = h
		base := j.cap.Mark()
		if err := e.captureInto(j.info.Then); err != nil {
			return err
		}
		j.table.Add(j.bkeys, j.cap.Ops(base, j.cap.Mark()))
		j.cap.Truncate(base)
		for _, so := range j.info.Release {
			e.buf.SignOffNow(t, so.Path, so.Role)
			e.signedOff[so.Role] = true
		}
	}
	e.env[j.info.BuildSlot] = buffer.Handle{}
	e.buf.Watched = e.buf.Watched[:0]
	e.holdJoin()
	return nil
}

// holdJoin reports what the join holds outside the buffer to it
// (DESIGN.md §10): the table's payload nodes count against the node
// budget, and the capture, key slab, groups and table into the byte
// peak.
func (e *Engine) holdJoin() {
	j := e.join
	e.buf.SetHeld(j.table.Nodes(), j.cap.Bytes()+j.table.Bytes()+j.slabBytes)
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
	// The group and, per key value, a string header and its bytes.
	j.slabBytes += int64(unsafe.Sizeof(g)) + int64(len(keys)-int(klo))*int64(unsafe.Sizeof(""))
	for _, k := range keys[klo:] {
		j.slabBytes += int64(len(k))
	}
	e.holdJoin()
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
// input — the build side is complete only then, as a later sibling of
// any build ancestor could still contribute tuples — and emit the
// groups.
func (e *Engine) finalizeJoin() error {
	j := e.join
	if err := e.ensureClosed(e.buf.Root); err != nil {
		return err
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
