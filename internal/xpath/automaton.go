package xpath

// Automaton marks a plan whose runs skip dead subtrees (DESIGN.md §7).
// It carries nothing: the preprojector's item matching decides which
// children are dead (projection.Preprojector.Dead). A nil *Automaton on
// a plan is the "never skip" seam of the reference runs in tests. It
// stays a type only because the benchmark module passes the field to
// EnableSkipping; ROADMAP item 5(a) retires it.
type Automaton struct{}
