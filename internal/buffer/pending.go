package buffer

import "gcx/internal/xpath"

// pendingSignOff is a deferred sign-off: its base node's subtree was not
// fully read when the signOff statement executed, so the role removal
// waits until the close tag has arrived (DESIGN.md §3: the one timing of
// a sign-off that does not prune).
// This timing reproduces the paper's Fig. 3(c) observation that 23 nodes
// are still buffered when </bib> is read.
//
// An open base cannot be purged, but a closed one can be before the
// queue is drained — when the sign-off would have matched nothing and
// no other role held the subtree. The struct may even be serving as
// another node by then, so the queue holds a Handle and drops entries
// whose base is gone: a purged subtree carried no role instance, so
// there is nothing left for them to remove.
type pendingSignOff struct {
	base Handle
	path xpath.Path
	role int
}

// SignOffNow removes one instance of role per derivation of path from
// base, for every matched node, and garbage-collects. It returns the
// number of instances removed. The caller must ensure that base's
// subtree is completely buffered (base.Closed), or that the role can no
// longer be assigned below it (projection.Preprojector.Prune), otherwise
// instances assigned to still-streaming nodes would be missed.
func (b *Buffer) SignOffNow(base *Node, path xpath.Path, role int) int {
	// A match still waiting in the list carries the instances about to
	// be removed from it, so no earlier removal's purge can reach it.
	total := 0
	for _, m := range b.Matches(base, path) {
		b.RemoveRole(m.Node, role, m.Count)
		total += m.Count
	}
	return total
}

// QueueSignOff registers a sign-off for later execution. If base is
// already closed it executes immediately.
func (b *Buffer) QueueSignOff(base *Node, path xpath.Path, role int) {
	if base.Closed {
		b.SignOffNow(base, path, role)
		return
	}
	b.pending = append(b.pending, pendingSignOff{base: Hold(base), path: path, role: role})
}

// DrainPending executes all queued sign-offs whose base subtree is now
// complete and returns how many were executed. The engine calls this
// after every blocking read and at end of evaluation.
func (b *Buffer) DrainPending() int {
	if len(b.pending) == 0 {
		return 0
	}
	executed := 0
	remaining := b.pending[:0]
	for _, p := range b.pending {
		switch {
		case !p.base.Live():
			// purged since it was queued: nothing left to remove
		case p.base.n.Closed:
			b.SignOffNow(p.base.n, p.path, p.role)
			executed++
		default:
			remaining = append(remaining, p)
		}
	}
	b.pending = remaining
	return executed
}

// Queued reports whether a sign-off of role is queued on within or on a
// node inside its subtree (the preprojector's prune check under test).
func (b *Buffer) Queued(within *Node, role int) bool {
	for _, p := range b.pending {
		if p.role != role || !p.base.Live() {
			continue
		}
		for n := p.base.n; n != nil; n = n.Parent {
			if n == within {
				return true
			}
		}
	}
	return false
}

// PendingCount returns the number of queued sign-offs.
func (b *Buffer) PendingCount() int { return len(b.pending) }
