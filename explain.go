package gcx

import (
	"fmt"
	"strings"

	"gcx/internal/analysis"
	"gcx/internal/xqast"
)

// ExplainReport is the structured form of everything the static
// analyzer decided about a query: projection roles, the rewritten query
// with its signOff statements, the streamability class with its static
// node bound (DESIGN.md §9), the subtree-skipping status and the
// sharding verdict. It marshals to JSON (the payload of gcxd's /explain
// endpoint and `gcx -explain-json`), and its Text method renders the
// legacy Query.Explain form — the report is the single source of truth,
// so the two cannot drift.
type ExplainReport struct {
	// Query is the original query text.
	Query string `json:"query,omitempty"`
	// Streamability is the lattice class: "bounded-constant",
	// "bounded-per-record" or "unbounded".
	Streamability string `json:"streamability"`
	// StreamabilityReason is the analyzer's justification — for
	// unbounded queries, the message strict compilation rejects with.
	StreamabilityReason string `json:"streamability_reason"`
	// StaticBound is the node-budget expression of a bounded query;
	// nil for unbounded ones.
	StaticBound *BoundReport `json:"static_bound,omitempty"`
	// Roles are the projection paths, in derivation order.
	Roles []Role `json:"roles"`
	// Rewritten is the executable query form with signOff statements.
	Rewritten string `json:"rewritten"`
	// UsesAggregation reports whether the query needs the aggregation
	// extension.
	UsesAggregation bool `json:"uses_aggregation"`
	// Skipping reports whether projection-guided byte-level subtree
	// skipping is available for this query.
	Skipping SkipReport `json:"skipping"`
	// Outputs are the stream-through verdicts of the output
	// expressions, aggregates and attribute templates, in query order
	// (DESIGN.md §3).
	Outputs []OutputReport `json:"outputs,omitempty"`
	// Sharding is the data-parallel execution verdict.
	Sharding ShardReport `json:"sharding"`
	// Join describes the streaming hash join plan of a detected
	// two-variable equality join (DESIGN.md §10); nil when the query has
	// none and runs pure nested-loop evaluation.
	Join *JoinReport `json:"join,omitempty"`
	// TracePhases is a run's per-phase wall-time breakdown. The static
	// report leaves it empty; callers that executed the query with
	// Options.EnableTrace attach Result.Trace here (cmd/gcx -trace
	// does) and Text renders it as a Trace section.
	TracePhases []TracePhase `json:"trace,omitempty"`
}

// BoundReport is the static node budget of a bounded query:
// peak buffered nodes ≤ ConstNodes + RecordFactor·nodes(RecordPath).
type BoundReport struct {
	// ConstNodes is the input-independent term.
	ConstNodes int64 `json:"const_nodes"`
	// RecordFactor scales with the node count of the largest record
	// subtree; 0 for loop-free queries.
	RecordFactor int64 `json:"record_factor"`
	// RecordPath is the absolute path whose matches are the records;
	// empty when RecordFactor is 0.
	RecordPath string `json:"record_path,omitempty"`
	// Expr is the human-readable form, e.g. "132 + 3·nodes(/site/people/person)".
	Expr string `json:"expr"`
}

// SkipReport is the compile-time subtree-skipping status.
type SkipReport struct {
	// Active reports whether runs skip dead subtrees. Every compiled
	// query does; runs with RecordEvery set still tokenize every byte.
	Active bool `json:"active"`
}

// OutputReport is one output expression's stream-through verdict.
type OutputReport struct {
	// Expr is the expression as the normalized query writes it.
	Expr string `json:"expr"`
	// Verdict is "stream" — on a binding that is still open, the
	// expression writes its matches from the stream and buffers only
	// what another use needs — or "buffered: <reason>".
	Verdict string `json:"verdict"`
}

// ShardReport is the compile-time sharding verdict.
type ShardReport struct {
	// Partitionable reports whether sharded execution is available.
	Partitionable bool `json:"partitionable"`
	// PartitionPath is the record boundary path of a partitionable
	// query.
	PartitionPath string `json:"partition_path,omitempty"`
	// Reason says why the query is sequential-only when Partitionable
	// is false.
	Reason string `json:"reason,omitempty"`
	// NDJSON reports whether sharding is also available over NDJSON
	// input (newline record framing).
	NDJSON bool `json:"ndjson"`
	// NDJSONReason says why an otherwise partitionable query must run
	// NDJSON input sequentially.
	NDJSONReason string `json:"ndjson_reason,omitempty"`
}

// JoinReport is the compile-time plan of a detected streaming join.
type JoinReport struct {
	// Strategy names the execution strategy.
	Strategy string `json:"strategy"`
	// ProbePath and BuildPath are the two correlated binding paths: the
	// probe side streams through, the build side is materialized.
	ProbePath string `json:"probe_path"`
	BuildPath string `json:"build_path"`
	// ProbeKey and BuildKey are the equality-compared key paths,
	// relative to their binding variables.
	ProbeKey string `json:"probe_key"`
	BuildKey string `json:"build_key"`
	// Budget notes how Options.MaxBufferedNodes applies: the build
	// side's materialization counts against the run's node budget, so a
	// budget trip surfaces before the table outgrows memory.
	Budget string `json:"budget"`
}

// Report returns the structured analyzer report of the compiled query.
// It reads the plan only: every verdict was computed once, at compile
// time.
func (q *Query) Report() ExplainReport {
	st := q.plan.Stream
	r := ExplainReport{
		Query:               q.plan.Source,
		Streamability:       st.Class.String(),
		StreamabilityReason: st.Reason,
		Roles:               q.Roles(),
		Rewritten:           xqast.Print(q.plan.Rewritten),
		UsesAggregation:     q.plan.UsesAggregation,
		Skipping:            SkipReport{Active: q.plan.Automaton != nil},
	}
	for _, v := range q.plan.Outputs {
		r.Outputs = append(r.Outputs, OutputReport{Expr: v.Expr, Verdict: v.String()})
	}
	if st.Class != analysis.Unbounded {
		r.StaticBound = &BoundReport{
			ConstNodes:   st.Bound.ConstNodes,
			RecordFactor: st.Bound.RecordFactor,
			Expr:         st.Bound.String(),
		}
		if st.Bound.RecordFactor > 0 {
			r.StaticBound.RecordPath = st.Bound.RecordPath.String()
		}
	}
	if s := q.plan.Shard; s != nil {
		r.Sharding.Partitionable = true
		r.Sharding.PartitionPath = s.PartitionPath.String()
		r.Sharding.NDJSON = s.NDJSONReason == ""
		r.Sharding.NDJSONReason = s.NDJSONReason
	} else {
		r.Sharding.Reason = q.plan.ShardReason
	}
	if j := q.plan.Join; j != nil {
		r.Join = &JoinReport{
			Strategy:  j.Strategy(),
			ProbePath: j.ProbePath.String(),
			BuildPath: j.BuildPath.String(),
			ProbeKey:  j.ProbeKey.RelString(),
			BuildKey:  j.BuildKey.RelString(),
			Budget:    "build-side nodes stay buffered until end of input and count against MaxBufferedNodes; a breach returns ErrBufferBudget with partial statistics",
		}
	}
	return r
}

// Text renders the report in the legacy Query.Explain layout: the role
// browser and rewritten query (the textual counterpart of the demo's
// Fig. 3(a) visualization), then one verdict line per analysis —
// streamability, static bound, skipping, sharding.
func (r ExplainReport) Text() string {
	var b strings.Builder
	b.WriteString("Roles (projection paths):\n")
	for _, role := range r.Roles {
		fmt.Fprintf(&b, "  %-4s %-55s (%s: %s)\n", role.Name+":", role.Path, role.Kind, role.Provenance)
	}
	b.WriteString("\nRewritten query with signOff statements:\n")
	b.WriteString(r.Rewritten)
	b.WriteString("\nStreamability: " + r.Streamability + " (" + r.StreamabilityReason + ")\n")
	if r.StaticBound != nil {
		b.WriteString("Static bound: peak ≤ " + r.StaticBound.Expr + " buffered nodes\n")
	} else {
		b.WriteString("Static bound: none (rejected by strict compilation; a runtime node budget can only trip)\n")
	}
	if r.Skipping.Active {
		b.WriteString("Skipping: byte-level subtree skipping active" +
			" (off for runs with RecordEvery)\n")
	}
	for _, o := range r.Outputs {
		b.WriteString("Output " + o.Expr + ": " + o.Verdict + "\n")
	}
	if r.Sharding.Partitionable {
		b.WriteString("Sharding: partitionable on " + r.Sharding.PartitionPath)
		if r.Sharding.NDJSON {
			b.WriteString(" (ndjson: eligible)")
		} else {
			b.WriteString(" (ndjson: sequential only — " + r.Sharding.NDJSONReason + ")")
		}
		b.WriteString("\n")
	} else {
		b.WriteString("Sharding: sequential only (" + r.Sharding.Reason + ")\n")
	}
	if r.Join != nil {
		b.WriteString("Join: " + r.Join.Strategy +
			" — probe " + r.Join.ProbePath + " key " + r.Join.ProbeKey +
			" ⋈ build " + r.Join.BuildPath + " key " + r.Join.BuildKey + "\n")
	}
	if len(r.TracePhases) > 0 {
		b.WriteString("Trace:\n")
		var total int64
		for _, p := range r.TracePhases {
			fmt.Fprintf(&b, "  %-10s %s\n", p.Phase, p.Duration())
			total += p.Nanos
		}
		fmt.Fprintf(&b, "  %-10s %s\n", "total", TracePhase{Nanos: total}.Duration())
	}
	return b.String()
}
