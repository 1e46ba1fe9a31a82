// Package analysis implements GCX's static query analysis (paper §2–3):
//
//  1. normalization to the single-step core fragment;
//  2. derivation of projection paths, one role per occurrence (the
//     paper's roles r1…r7 for the running example);
//  3. computation of preemption points and insertion of signOff
//     statements into the query — including the hoisting rule that
//     parks join partners in the buffer until the consuming outer loop
//     has finished (XMark Q8's linear-memory behaviour, Fig. 4(b)).
package analysis

import (
	"fmt"

	"gcx/internal/xpath"
	"gcx/internal/xqast"
)

// RoleKind classifies why a role exists.
type RoleKind uint8

const (
	// RoleRoot is the implicit role of the virtual document root (the
	// paper's r1: "/").
	RoleRoot RoleKind = iota
	// RoleBinding marks the binding path of a for-loop (r2, r3, r6).
	RoleBinding
	// RoleOutput marks output expressions; their paths end in
	// descendant-or-self::node() because the full subtree is emitted
	// (r5, r7).
	RoleOutput
	// RoleExists marks existence conditions; their paths carry the
	// first-witness predicate [1] (r4).
	RoleExists
	// RoleOperand marks comparison operands (string values, hence
	// subtree paths; attribute operands keep only the element path).
	RoleOperand
	// RoleAgg marks aggregation arguments (count/sum/min/max/avg, extension).
	RoleAgg
)

func (k RoleKind) String() string {
	switch k {
	case RoleRoot:
		return "root"
	case RoleBinding:
		return "binding"
	case RoleOutput:
		return "output"
	case RoleExists:
		return "exists"
	case RoleOperand:
		return "operand"
	case RoleAgg:
		return "aggregate"
	default:
		return fmt.Sprintf("RoleKind(%d)", uint8(k))
	}
}

// Role is one projection path with its provenance.
type Role struct {
	ID   int
	Kind RoleKind
	// Path is the absolute projection path evaluated by the stream
	// preprojector.
	Path xpath.Path
	// Provenance describes the query fragment that created the role,
	// for the role browser (-explain).
	Provenance string
}

// Name renders the paper-style role name r1, r2, …
func (r Role) Name() string { return fmt.Sprintf("r%d", r.ID+1) }

// Plan is the compiled form of a query.
type Plan struct {
	// Source is the original query text, when known.
	Source string
	// Normalized is the single-step core form, before sign-off insertion.
	Normalized *xqast.Query
	// Rewritten is the executable form with signOff statements and
	// resolved variable slots.
	Rewritten *xqast.Query
	// Slots is the size of the evaluator's variable environment: one
	// slot for the document root plus one per for-loop of Rewritten
	// (see xqast.ForExpr.Slot).
	Slots int
	// Roles are the projection paths, in discovery order (the paper's
	// numbering).
	Roles []Role
	// UsesAggregation reports whether the query uses the aggregation extension.
	UsesAggregation bool
	// Automaton is the path automaton compiled from the role paths at
	// analysis time (DESIGN.md §7): the engine's preprojector uses its
	// dead states to fast-forward the byte stream past subtrees no
	// projection path can observe. It is nil when the path set cannot
	// be compiled (then runs simply never skip), immutable, and shared
	// by all executions of the plan.
	Automaton *xpath.Automaton
	// SkipReason says why Automaton is nil — the compile-time reason
	// byte-level subtree skipping is unavailable (attribute-axis
	// projection path, state cap). Empty when Automaton is non-nil;
	// runtime switches (DisableSubtreeSkip, RecordEvery) additionally
	// disable skipping per run without being recorded here.
	SkipReason string
	// Opts are the analysis switches the plan was compiled with, kept so
	// derived plans (sharding) reuse the same analysis.
	Opts Options
	// Stream is the compile-time streamability verdict: the lattice
	// class, the analyzer's reason, and (for bounded classes) the
	// static node budget. See streamability.go / DESIGN.md §9.
	Stream StreamInfo
	// Join is the detected equality-join structure (the Q8/Q9 shape),
	// or nil. When set, the engine runs the internal/join operator —
	// one pass, build side materialized into a hash table — instead of
	// nested re-evaluation. See join.go / DESIGN.md §10.
	Join *JoinInfo
}

// RolePaths returns the projection paths indexed by role id, the input
// to projection.New.
func (p *Plan) RolePaths() []xpath.Path {
	paths := make([]xpath.Path, len(p.Roles))
	for i, r := range p.Roles {
		paths[i] = r.Path
	}
	return paths
}

// Options tunes the static analysis (ablation switches; the defaults
// reproduce the paper).
type Options struct {
	// DisableFirstWitness drops the [1] predicate from existence-
	// condition projection paths (the paper's r4 optimization), so
	// every witness candidate is buffered instead of only the first.
	// Used by the ablation benchmarks to quantify what first-witness
	// pruning buys.
	DisableFirstWitness bool
	// CoarseGranularity derives subtree-granular use roles: whenever
	// any part of a subtree is relevant (an operand, an existence
	// witness, a text value), the whole element subtree is projected —
	// the relevance model of simpler streaming systems. The paper's
	// node-granular roles are the default; this switch quantifies what
	// the finer granularity buys (ablation A5).
	CoarseGranularity bool
}

// Analyze compiles a parsed query with the paper's default analysis:
// normalize, derive roles, place sign-offs.
func Analyze(q *xqast.Query) (*Plan, error) {
	return AnalyzeWithOptions(q, Options{})
}

// AnalyzeWithOptions compiles with explicit analysis switches.
func AnalyzeWithOptions(q *xqast.Query, opts Options) (*Plan, error) {
	norm, err := Normalize(q)
	if err != nil {
		return nil, err
	}
	// Normalization reuses the leaves of the caller's tree; the rewrite
	// and the slot assignment work on a copy, so the plan owns every
	// node it annotates.
	work := &xqast.Query{Body: xqast.CloneExpr(norm.Body)}

	ex := newExtractor()
	ex.opts = opts
	if err := ex.run(work); err != nil {
		return nil, err
	}
	rewritten := &xqast.Query{Body: ex.rewrite(work.Body, nil)}
	slots, err := assignSlots(rewritten)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Normalized:      norm,
		Rewritten:       rewritten,
		Slots:           slots,
		Roles:           ex.roles,
		UsesAggregation: ex.usesAggregation,
		Opts:            opts,
	}
	plan.Automaton, plan.SkipReason = xpath.CompileAutomatonReason(plan.RolePaths())
	plan.Stream = Streamability(plan)
	plan.Join = DetectJoin(plan)
	return plan, nil
}
