package analysis

// Shardability analysis (DESIGN.md §6): decide whether a compiled plan
// can be evaluated by data-partitioning the input stream and running
// independent engine instances over the partitions.
//
// A query is partitionable when its normalized body is a constant
// wrapper (direct constructors with literal attributes, string
// literals) around a single chain of pass-through for-loops rooted at
// the document root, and the chain's body touches only variables bound
// at or below the partition cut. Everything the body can then reach is
// contained in one record subtree, so record-aligned slices of the
// stream can be evaluated independently and their outputs concatenated
// in input order — byte-identical to the sequential run. Aggregations
// or joins over the whole input read state across iterations and fall
// back to sequential execution.

import (
	"bytes"

	"gcx/internal/event"
	"gcx/internal/xmltok"
	"gcx/internal/xpath"
	"gcx/internal/xqast"
)

// ShardInfo is the compile-time partitioning recipe of a shardable
// plan.
type ShardInfo struct {
	// PartitionPath is the absolute child-axis path whose matches are
	// the record roots of stream partitioning. Every step is a child
	// step with a name or wildcard test, so records are non-nesting,
	// fixed-depth element subtrees.
	PartitionPath xpath.Path
	// Prefix and Suffix are the serialized constant wrapper bytes
	// (constructor open tags and literal text around the outer loop),
	// emitted exactly once around the merged worker outputs.
	Prefix, Suffix []byte
	// Inner is the derived plan each shard worker runs over its chunk
	// documents: the loop chain without the wrapper, analyzed with the
	// same switches as the parent plan.
	Inner *Plan
}

// Shardable inspects a compiled plan and reports whether it is
// partitionable on its outermost for-loop path. On success it returns
// the partitioning recipe; otherwise it returns nil and the reason the
// plan must run sequentially.
func Shardable(p *Plan) (*ShardInfo, string) {
	// The join keeps its build partners until the probe loop ends
	// (DESIGN.md §10), so no record's output can be final on its own.
	if p.Join != nil {
		return nil, "detected join: no probe output is final before the build side is complete"
	}

	var prefix, suffix bytes.Buffer
	pre := xmltok.NewSerializer(&prefix)
	suf := xmltok.NewSerializer(&suffix)
	defer pre.Release()
	defer suf.Release()

	chain, reason := stripWrapper(p.Normalized.Body, pre, suf)
	if chain == nil {
		return nil, reason
	}
	pre.Flush()
	suf.Flush()

	loops, body := collectChain(chain)
	cut, reason := partitionCut(loops, body)
	if cut == 0 {
		return nil, reason
	}

	steps := make([]xpath.Step, cut)
	for i := 0; i < cut; i++ {
		steps[i] = loops[i].In.Path.Steps[0]
	}

	inner, err := AnalyzeWithOptions(&xqast.Query{Body: xqast.CloneExpr(chain)}, p.Opts)
	if err != nil {
		// The chain was part of a plan that analyzed cleanly, so this
		// is unreachable in practice; degrade to sequential execution.
		return nil, "inner plan analysis failed: " + err.Error()
	}

	return &ShardInfo{
		PartitionPath: xpath.Path{Steps: steps},
		Prefix:        append([]byte(nil), prefix.Bytes()...),
		Suffix:        append([]byte(nil), suffix.Bytes()...),
		Inner:         inner,
	}, ""
}

// NDJSONShardable reports whether a shardable plan can also be sharded
// over NDJSON input, where the only available record boundary is the
// newline (internal/jsontok.Splitter — DESIGN.md §8). It returns ""
// when eligible, or the reason the NDJSON run must stay sequential.
//
// The constraints beyond plain shardability: the query must be
// wrapperless (the Prefix/Suffix wrapper bytes are serialized XML and
// cannot wrap JSON-lines output), and the partition path's first two
// steps must sit at or below the tokenizer's virtual root/record pair —
// a line holds exactly one record subtree, so cuts above the record
// level would split state across chunks.
func NDJSONShardable(info *ShardInfo) string {
	if len(info.Prefix) > 0 || len(info.Suffix) > 0 {
		return "query constructs a constant wrapper, which serializes as XML and cannot wrap JSON-lines output"
	}
	steps := info.PartitionPath.Steps
	if len(steps) < 2 {
		return "partition path " + info.PartitionPath.String() + " sits above the record level (one NDJSON line = one /" +
			event.RootName + "/" + event.RecordName + " subtree)"
	}
	if !stepMatchesName(steps[0], event.RootName) {
		return "partition path does not start at the virtual /" + event.RootName + " element"
	}
	if !stepMatchesName(steps[1], event.RecordName) {
		return "partition path's second step does not match the per-line /" +
			event.RootName + "/" + event.RecordName + " element"
	}
	return ""
}

// stepMatchesName reports whether a child step accepts an element of
// the given name (exact name test or wildcard).
func stepMatchesName(s xpath.Step, name string) bool {
	return s.Test.Kind == xpath.TestWildcard ||
		(s.Test.Kind == xpath.TestName && s.Test.Name == name)
}

// stripWrapper descends through the constant wrapper around the outer
// for-loop, accumulating its serialized open half into pre and its
// close half into suf (suffix parts are written on unwind, so they come
// out innermost-first — the emission order). It returns the outermost
// ForExpr, or nil with a reason.
func stripWrapper(e xqast.Expr, pre, suf *xmltok.Serializer) (*xqast.ForExpr, string) {
	switch e := e.(type) {
	case *xqast.ForExpr:
		if e.In.Base != xqast.RootVar {
			return nil, "outer for-loop is not rooted at the document root"
		}
		return e, ""
	case *xqast.Element:
		attrs := make([]xmltok.Attr, len(e.Attrs))
		for i, a := range e.Attrs {
			if a.Expr != nil {
				return nil, "wrapper element <" + e.Name + "> has a computed attribute"
			}
			attrs[i] = xmltok.Attr{Name: a.Name, Value: a.Lit}
		}
		pre.StartElement(e.Name, attrs)
		chain, reason := stripWrapper(e.Content, pre, suf)
		if chain == nil {
			return nil, reason
		}
		suf.EndElement(e.Name)
		return chain, ""
	case *xqast.Sequence:
		// Exactly one item may be dynamic; literals before it join the
		// prefix, literals after it join the suffix.
		dynamic := -1
		for i, item := range e.Items {
			switch item.(type) {
			case *xqast.StringLit, *xqast.Empty:
			default:
				if dynamic >= 0 {
					return nil, "multiple dynamic expressions at the top level"
				}
				dynamic = i
			}
		}
		if dynamic < 0 {
			return nil, "no outer for-loop (constant query)"
		}
		for _, item := range e.Items[:dynamic] {
			if s, ok := item.(*xqast.StringLit); ok {
				pre.Text(s.Value)
			}
		}
		chain, reason := stripWrapper(e.Items[dynamic], pre, suf)
		if chain == nil {
			return nil, reason
		}
		for _, item := range e.Items[dynamic+1:] {
			if s, ok := item.(*xqast.StringLit); ok {
				suf.Text(s.Value)
			}
		}
		return chain, ""
	case *xqast.AggExpr:
		return nil, "top-level aggregation over the whole input"
	case *xqast.PathExpr:
		return nil, "top-level path reads the whole document"
	case *xqast.IfExpr:
		return nil, "top-level condition reads the whole document"
	default:
		return nil, "no outer for-loop"
	}
}

// collectChain walks the maximal chain of pass-through for-loops: each
// loop's body is exactly the next loop, bound to the previous variable.
// It returns the loops outermost-first and the innermost body.
func collectChain(f *xqast.ForExpr) ([]*xqast.ForExpr, xqast.Expr) {
	loops := []*xqast.ForExpr{f}
	for {
		cur := loops[len(loops)-1]
		next, ok := cur.Body.(*xqast.ForExpr)
		if !ok || next.In.Base != cur.Var {
			return loops, cur.Body
		}
		loops = append(loops, next)
	}
}

// partitionCut picks the deepest prefix of the loop chain usable as the
// partition path. Records must be complete subtrees containing
// everything the remaining evaluation can reach, so the cut must sit at
// or above the shallowest chain variable the body references; and the
// path itself must be child steps with name or wildcard tests, so
// records sit at a fixed depth and never nest. A zero cut means the
// plan is not partitionable.
func partitionCut(loops []*xqast.ForExpr, body xqast.Expr) (int, string) {
	used := xqast.UsedVars(body)
	if used[xqast.RootVar] {
		return 0, "loop body reads the document root (join or whole-document access)"
	}
	shallowest := len(loops)
	for i, f := range loops {
		if used[f.Var] && i+1 < shallowest {
			shallowest = i + 1
		}
	}
	cut := 0
	for i := 0; i < shallowest; i++ {
		step := loops[i].In.Path.Steps
		if len(step) != 1 {
			break // normalized loops are single-step; be defensive
		}
		s := step[0]
		if s.Axis != xpath.Child || s.FirstOnly {
			break
		}
		if s.Test.Kind != xpath.TestName && s.Test.Kind != xpath.TestWildcard {
			break
		}
		cut = i + 1
	}
	if cut == 0 {
		return 0, "binding path starts with a non-child or predicated step"
	}
	return cut, ""
}
