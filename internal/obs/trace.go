package obs

import "time"

// Phase identifies one stage of a query execution for per-phase wall
// timing (DESIGN.md §11). Phases are disjoint wall-clock intervals of
// the sequential pipeline; PhaseEval is derived as the remainder
// (total − every stamped phase), so a sequential trace's phases sum to
// the run's wall time exactly.
type Phase uint8

const (
	// PhaseCompile is parse + static analysis (stamped by gcx.Compile,
	// reported per Query, not per run).
	PhaseCompile Phase = iota
	// PhaseSetup is format sniffing plus source/sink construction.
	PhaseSetup
	// PhaseStream is time inside the engine's ensure loop: tokenizing,
	// byte-level subtree skipping, projection and buffer maintenance.
	PhaseStream
	// PhaseJoinBuild is the join operator's taking of each build tuple
	// into its hash table at the tuple's close (DESIGN.md §10), kept out
	// of the PhaseStream interval it happens in.
	PhaseJoinBuild
	// PhaseJoinProbe is the join operator's group replay.
	PhaseJoinProbe
	// PhaseMerge is the sharded run's ordered output merge (the
	// writes, not the waiting).
	PhaseMerge
	// PhaseEval is everything else: evaluator walking and result
	// serialization, derived as the wall-time remainder.
	PhaseEval
	numPhases
)

var phaseNames = [numPhases]string{
	"compile", "setup", "stream", "join_build", "join_probe",
	"merge", "eval",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseTime is one timed phase of a trace, in canonical pipeline order.
type PhaseTime struct {
	// Phase is the stage name: compile, setup, stream, join_build,
	// join_probe, merge or eval.
	Phase string `json:"phase"`
	// Nanos is the cumulative wall time spent in the stage. Under
	// sharded execution worker phases are summed across workers, so
	// they can exceed the run's wall time (DESIGN.md §11).
	Nanos int64 `json:"nanos"`
}

// Duration returns the phase time as a time.Duration.
func (p PhaseTime) Duration() time.Duration { return time.Duration(p.Nanos) }

// Timer accumulates per-phase nanoseconds for one run. It is owned by
// a single goroutine (each engine instance runs sequentially); sharded
// runs give every worker its own timer and sum them in the merge
// goroutine. The zero value is ready to use.
type Timer struct {
	nanos [numPhases]int64
}

// Add accumulates d into phase p.
func (t *Timer) Add(p Phase, d time.Duration) { t.nanos[p] += int64(d) }

// AddNanos accumulates n nanoseconds into phase p.
func (t *Timer) AddNanos(p Phase, n int64) { t.nanos[p] += n }

// Nanos returns the accumulated time of phase p.
func (t *Timer) Nanos(p Phase) int64 { return t.nanos[p] }

// Sum returns the total accumulated nanoseconds across all phases.
func (t *Timer) Sum() int64 {
	var s int64
	for _, n := range t.nanos {
		s += n
	}
	return s
}

// Phases returns the non-zero phases in canonical order.
func (t *Timer) Phases() []PhaseTime {
	out := make([]PhaseTime, 0, numPhases)
	for p := Phase(0); p < numPhases; p++ {
		if t.nanos[p] != 0 {
			out = append(out, PhaseTime{Phase: p.String(), Nanos: t.nanos[p]})
		}
	}
	return out
}

// SumPhases merges phase lists by summing per-phase times, returning
// the result in canonical order. Unknown phase names are dropped (the
// lists come from Timer.Phases, which only emits known names).
func SumPhases(lists ...[]PhaseTime) []PhaseTime {
	var t Timer
	for _, l := range lists {
		for _, pt := range l {
			for p := Phase(0); p < numPhases; p++ {
				if phaseNames[p] == pt.Phase {
					t.nanos[p] += pt.Nanos
					break
				}
			}
		}
	}
	return t.Phases()
}
