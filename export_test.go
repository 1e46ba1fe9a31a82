package gcx

import (
	"time"

	"gcx/internal/analysis"
	"gcx/internal/core"
)

// The paper's ablations and the reference runs of the parity tests are
// other plans for the same query, not run options: the hooks below build
// them for this package's tests and benchmarks.

// CompileAnalysis compiles src with explicit analysis switches: the
// first-witness (DisableFirstWitness) and role-granularity
// (CoarseGranularity) ablations.
func CompileAnalysis(src string, opts analysis.Options) (*Query, error) {
	start := time.Now()
	plan, err := core.CompileWithOptions(src, opts)
	if err != nil {
		return nil, err
	}
	return &Query{plan: plan, compileNanos: int64(time.Since(start))}, nil
}

// WithoutSkip returns a copy of q whose runs tokenize every input byte:
// neither its plan nor its shard workers' plan skips.
func WithoutSkip(q *Query) *Query {
	return q.withPlan(func(p *analysis.Plan) { p.Automaton = nil })
}

// WithoutJoin returns a copy of q whose detected join, if any, runs as
// nested loops instead of through the join operator.
func WithoutJoin(q *Query) *Query {
	return q.withPlan(func(p *analysis.Plan) { p.Join = nil })
}

// withPlan returns a copy of q whose plan — and shard worker plan — are
// copies changed by edit. q and its plan, which other goroutines may be
// running, are left untouched.
func (q *Query) withPlan(edit func(*analysis.Plan)) *Query {
	plan := *q.plan
	edit(&plan)
	if plan.Shard != nil {
		shard, inner := *plan.Shard, *plan.Shard.Inner
		edit(&inner)
		shard.Inner = &inner
		plan.Shard = &shard
	}
	return &Query{plan: &plan, compileNanos: q.compileNanos}
}
