// Package xqgen generates random documents and random queries of the
// GCX fragment for property-based testing: the differential oracle
// (streaming engines vs. DOM), parser round-trip stability and fuzzing
// of the compile pipeline all draw from it.
//
// Generated queries are always well-formed and well-scoped, so any
// parse or analysis failure they provoke is a bug by construction.
package xqgen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Names is the element-name alphabet shared by documents and queries,
// so that paths frequently match.
var Names = []string{"a", "b", "c", "d", "e"}

// Options tunes query generation.
type Options struct {
	// MaxLoops bounds the number of for-loops per query (join blow-up).
	MaxLoops int
	// Aggregates permits count/sum/min/max/avg expressions.
	Aggregates bool
	// AttrTemplates permits computed constructor attributes.
	AttrTemplates bool
	// Where permits where-clauses on loops.
	Where bool
	// SingleRootLoop biases generation toward bounded-streamable
	// queries: once a loop variable is in scope, path references prefer
	// bound variables over the absolute root, so most generated queries
	// are single-pass pipelines rather than joins or whole-input reads.
	// Used by the static-bound fuzz harness, which needs a healthy mix
	// of bounded classifications to exercise the budget property.
	SingleRootLoop bool
}

// DefaultOptions covers the full implemented language.
func DefaultOptions() Options {
	return Options{MaxLoops: 5, Aggregates: true, AttrTemplates: true, Where: true}
}

// Document produces a random well-formed document rooted at <root>.
func Document(r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("<root>")
	content(r, &sb, 0)
	sb.WriteString("</root>")
	return sb.String()
}

func content(r *rand.Rand, sb *strings.Builder, depth int) {
	n := r.Intn(4)
	if depth == 0 {
		n = 2 + r.Intn(4)
	}
	for i := 0; i < n; i++ {
		switch {
		case depth < 4 && r.Intn(3) > 0:
			name := Names[r.Intn(len(Names))]
			sb.WriteString("<" + name)
			if r.Intn(2) == 0 {
				fmt.Fprintf(sb, ` id="%d"`, r.Intn(5))
			}
			if r.Intn(4) == 0 {
				fmt.Fprintf(sb, ` k="%d"`, r.Intn(3))
			}
			sb.WriteString(">")
			content(r, sb, depth+1)
			sb.WriteString("</" + name + ">")
		default:
			fmt.Fprintf(sb, "t%d", r.Intn(10))
		}
	}
}

// JoinKeys is the value pool join documents draw keys from: a small
// alphabet so duplicate keys are common, plus empty values and values
// carrying entity references (escaped in the document, compared decoded
// by the engine). Exported so fuzz seeds and tests can reuse it.
var JoinKeys = []string{"k0", "k1", "k2", "k1", "", "a&amp;b", "l&lt;r", "q&quot;e", " s p "}

// JoinLayout orders the sections of a join document: where the build
// tuples close relative to the probe bindings.
type JoinLayout uint8

const (
	// ProbeFirst puts every probe record before every build tuple.
	ProbeFirst JoinLayout = iota
	// BuildFirst puts every build tuple before every probe record.
	BuildFirst
	// Alternating interleaves <bs> and <ps> sections of two records
	// each, starting with tuples, so tuples close before, between and
	// after probe bindings.
	Alternating
)

// JoinLayouts lists every layout.
var JoinLayouts = []JoinLayout{ProbeFirst, BuildFirst, Alternating}

func (l JoinLayout) String() string {
	switch l {
	case ProbeFirst:
		return "probe-first"
	case BuildFirst:
		return "build-first"
	case Alternating:
		return "alternating"
	}
	return fmt.Sprintf("JoinLayout(%d)", uint8(l))
}

// JoinDocument produces a document of the shape JoinQuery queries,
// with its sections in the given layout: probe records under
// /root/ps/p (children n, k and an id attribute) and build records
// under /root/bs/b (children k, v and an id attribute). Key values come
// from JoinKeys; records occasionally carry no key or a second key
// element, exercising empty-sequence and multi-key existential
// comparisons.
func JoinDocument(r *rand.Rand, probeN, buildN int, layout JoinLayout) string {
	key := func() string {
		k := "<k>" + JoinKeys[r.Intn(len(JoinKeys))] + "</k>"
		switch r.Intn(8) {
		case 0:
			return "" // no key: existentially matches nothing
		case 1:
			return k + "<k>" + JoinKeys[r.Intn(len(JoinKeys))] + "</k>"
		}
		return k
	}
	probes := make([]string, probeN)
	for i := range probes {
		probes[i] = fmt.Sprintf(`<p id="%d"><n>n%d</n>%s</p>`, i%5, i, key())
	}
	builds := make([]string, buildN)
	for i := range builds {
		builds[i] = fmt.Sprintf(`<b id="%d">%s<v>v%d</v></b>`, i%4, key(), i)
	}
	return JoinSections(layout, probes, builds)
}

// JoinSections wraps probe records in <ps> and build records in <bs>
// sections under <root>, in the given layout.
func JoinSections(layout JoinLayout, probes, builds []string) string {
	var sb strings.Builder
	section := func(name string, records []string) {
		sb.WriteString("<" + name + ">" + strings.Join(records, "") + "</" + name + ">")
	}
	sb.WriteString("<root>")
	switch layout {
	case BuildFirst:
		section("bs", builds)
		section("ps", probes)
	case Alternating:
		for len(probes) > 0 || len(builds) > 0 {
			n := min(2, len(builds))
			if n > 0 {
				section("bs", builds[:n])
			}
			builds = builds[n:]
			n = min(2, len(probes))
			if n > 0 {
				section("ps", probes[:n])
			}
			probes = probes[n:]
		}
	default:
		section("ps", probes)
		section("bs", builds)
	}
	sb.WriteString("</root>")
	return sb.String()
}

// JoinQuery produces a random query of the detectable join shape
// (analysis.DetectJoin) over JoinDocument-shaped inputs: an outer loop
// over the probe section whose body re-scans the build section keeping
// equal-keyed records.
func JoinQuery(r *rand.Rand) string {
	keyEq := [...]string{
		"$b/k = $p/k",
		"$p/k = $b/k",
		"$b/@id = $p/@id",
	}[r.Intn(3)]
	then := [...]string{
		"$b/v",
		"$b/k",
		"<v>{ $b/v }</v>",
		"($b/v, $b/k)",
	}[r.Intn(4)]
	inner := fmt.Sprintf("for $b in /root/bs/b return if (%s) then %s else ()", keyEq, then)
	body := inner
	if r.Intn(2) == 0 {
		body = "<m>{ $p/n, " + inner + " }</m>"
	}
	return "<out>{ for $p in /root/ps/p return " + body + " }</out>"
}

// Query produces a random query over Document-shaped inputs.
func Query(r *rand.Rand, opts Options) string {
	g := &gen{r: r, opts: opts}
	return "<out>{ " + g.exprSeq(0) + " }</out>"
}

type gen struct {
	r     *rand.Rand
	opts  Options
	vars  []string
	next  int
	loops int
}

func (g *gen) fresh() string {
	g.next++
	return fmt.Sprintf("x%d", g.next)
}

func (g *gen) name() string { return Names[g.r.Intn(len(Names))] }

// path generates a relative path suffix of 1..2 steps.
func (g *gen) path(allowAttr, allowText bool) string {
	var steps []string
	n := 1 + g.r.Intn(2)
	for i := 0; i < n; i++ {
		switch g.r.Intn(6) {
		case 0:
			steps = append(steps, "*")
		case 1:
			steps = append(steps, "descendant::"+g.name())
		default:
			steps = append(steps, g.name())
		}
	}
	if allowAttr && g.r.Intn(4) == 0 {
		steps = append(steps, "@id")
	} else if allowText && g.r.Intn(4) == 0 {
		steps = append(steps, "text()")
	}
	return strings.Join(steps, "/")
}

// base picks an in-scope variable or the root. Under SingleRootLoop,
// bound variables win whenever one is in scope (the root is only used
// for the first loop binding and for loop-free expressions).
func (g *gen) base() string {
	if len(g.vars) > 0 && (g.opts.SingleRootLoop || g.r.Intn(3) > 0) {
		return "$" + g.vars[g.r.Intn(len(g.vars))]
	}
	return ""
}

func (g *gen) pathRef(allowAttr, allowText bool) string {
	b := g.base()
	if b == "" {
		return "/root/" + g.path(allowAttr, allowText)
	}
	return b + "/" + g.path(allowAttr, allowText)
}

func (g *gen) exprSeq(depth int) string {
	n := 1 + g.r.Intn(2)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = g.expr(depth)
	}
	if n == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func (g *gen) expr(depth int) string {
	roll := g.r.Intn(12)
	switch {
	case roll < 4 && depth < 3 && g.loops < g.opts.MaxLoops:
		g.loops++
		v := g.fresh()
		bind := g.pathRef(false, false)
		where := ""
		if g.opts.Where && g.r.Intn(4) == 0 {
			where = " where " + g.cond(1)
		}
		g.vars = append(g.vars, v)
		body := g.expr(depth + 1)
		g.vars = g.vars[:len(g.vars)-1]
		return fmt.Sprintf("for $%s in %s%s return %s", v, bind, where, body)
	case roll < 6 && depth < 4:
		return fmt.Sprintf("if (%s) then %s else %s", g.cond(0), g.expr(depth+1), g.expr(depth+1))
	case roll < 7 && len(g.vars) > 0:
		return "$" + g.vars[g.r.Intn(len(g.vars))]
	case roll < 8 && g.opts.Aggregates:
		fns := []string{"count", "sum", "min", "max", "avg"}
		return fmt.Sprintf("%s(%s)", fns[g.r.Intn(len(fns))], g.pathRef(true, true))
	case roll < 11:
		attr := ""
		if g.opts.AttrTemplates && g.r.Intn(3) == 0 {
			attr = fmt.Sprintf(` v="{%s}"`, g.pathRef(true, true))
		}
		return "<w" + attr + ">{ " + g.pathRef(true, true) + " }</w>"
	default:
		return fmt.Sprintf("%q", fmt.Sprintf("s%d", g.r.Intn(5)))
	}
}

func (g *gen) cond(depth int) string {
	roll := g.r.Intn(8)
	switch {
	case roll < 2:
		return "exists " + g.pathRef(true, false)
	case roll < 3 && depth < 2:
		return fmt.Sprintf("not(%s)", g.cond(depth+1))
	case roll < 4 && depth < 2:
		return fmt.Sprintf("(%s and %s)", g.cond(depth+1), g.cond(depth+1))
	case roll < 5 && depth < 2:
		return fmt.Sprintf("(%s or %s)", g.cond(depth+1), g.cond(depth+1))
	case roll < 7:
		return fmt.Sprintf("%s = %q", g.pathRef(true, true), fmt.Sprintf("%d", g.r.Intn(5)))
	default:
		return fmt.Sprintf("%s = %s", g.pathRef(true, false), g.pathRef(true, false))
	}
}

// Records produces n NDJSON records, one per line, in the shape
// J-shaped queries (RecordQuery) read and decisions at a run's end
// (DESIGN.md §3, "Decision timing") care about: members over three
// names in a random order, some absent, values that are numbers,
// strings, null, arrays (empty ones included) or nested objects. With
// repeats set, a record often repeats a key after another member — a
// non-contiguous run (RepeatedKeys names them).
func Records(r *rand.Rand, n int, repeats bool) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		object(r, &sb, 0, repeats)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// object writes one JSON object of up to five members.
func object(r *rand.Rand, sb *strings.Builder, depth int, repeats bool) {
	keys := r.Perm(len(recordNames))[:r.Intn(len(recordNames)+1)]
	var members []string
	for _, k := range keys {
		members = append(members, recordNames[k])
	}
	if repeats && len(members) > 1 && r.Intn(4) != 0 {
		// Repeat an earlier key after a later member.
		at := 2 + r.Intn(len(members)-1)
		members = append(members[:at], append([]string{members[r.Intn(at-1)]}, members[at:]...)...)
	}
	sb.WriteByte('{')
	for i, m := range members {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "%q:", m)
		jsonValue(r, sb, depth)
	}
	sb.WriteByte('}')
}

// jsonValue writes a scalar, an array or, above the nesting limit, an
// object.
func jsonValue(r *rand.Rand, sb *strings.Builder, depth int) {
	switch roll := r.Intn(10); {
	case roll < 3:
		fmt.Fprintf(sb, "%d", r.Intn(3))
	case roll < 6:
		fmt.Fprintf(sb, `"%d"`, r.Intn(3))
	case roll < 7:
		sb.WriteString("null")
	case roll < 9 || depth > 0:
		sb.WriteByte('[')
		for i, n := 0, r.Intn(3); i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(sb, `"%d"`, r.Intn(3))
		}
		sb.WriteByte(']')
	default:
		object(r, sb, depth+1, false)
	}
}

// RepeatedKeys returns the top-level keys that some record of an NDJSON
// document repeats after another member.
func RepeatedKeys(doc string) map[string]bool {
	keys := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		var seen []string
		last := ""
		depth := 0
		for i := 0; i < len(line); i++ {
			switch c := line[i]; {
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				depth--
			case c == '"':
				end := stringEnd(line, i)
				if k := line[i+1 : end]; depth == 1 && (line[i-1] == '{' || line[i-1] == ',') && k != last {
					if slices.Contains(seen, k) {
						keys[k] = true
					}
					seen = append(seen, k)
					last = k
				}
				i = end
			}
		}
	}
	return keys
}

// stringEnd returns the index of the quote that closes the JSON string
// opening at line[i].
func stringEnd(line string, i int) int {
	for i++; i < len(line) && line[i] != '"'; i++ {
		if line[i] == '\\' {
			i++
		}
	}
	return i
}

// RecordQuery produces a random J-shaped query over Records-shaped
// inputs: one loop over the records whose body is an if-expression
// built from =, !=, <, exists and not(exists …), joined by and and or,
// over paths of one or two member names, with outputs of the record's
// members in either branch.
func RecordQuery(r *rand.Rand) string {
	g := &gen{r: r}
	return fmt.Sprintf("for $r in /root/record return if (%s) then %s else %s",
		g.recordCond(0), g.recordOut(), g.recordOut())
}

// recordNames is the member alphabet of Records and RecordQuery: three
// names, so that conditions and outputs often read the members present.
var recordNames = Names[:3]

// recordPath is $r/name or $r/name/name.
func (g *gen) recordPath() string {
	p := "$r/" + recordNames[g.r.Intn(len(recordNames))]
	if g.r.Intn(4) == 0 {
		p += "/" + recordNames[g.r.Intn(len(recordNames))]
	}
	return p
}

func (g *gen) recordCond(depth int) string {
	v := g.r.Intn(3)
	switch roll := g.r.Intn(9); {
	case roll < 2 && depth < 2:
		return fmt.Sprintf("(%s and %s)", g.recordCond(depth+1), g.recordCond(depth+1))
	case roll < 4 && depth < 2:
		return fmt.Sprintf("(%s or %s)", g.recordCond(depth+1), g.recordCond(depth+1))
	case roll < 5:
		return fmt.Sprintf(`%s = "%d"`, g.recordPath(), v)
	case roll < 6:
		return fmt.Sprintf(`%s != "%d"`, g.recordPath(), v)
	case roll < 7:
		return fmt.Sprintf("%s < %d", g.recordPath(), v)
	case roll < 8:
		return "exists " + g.recordPath()
	default:
		return "not(exists " + g.recordPath() + ")"
	}
}

func (g *gen) recordOut() string {
	switch g.r.Intn(4) {
	case 0:
		return "()"
	case 1:
		return "(" + g.recordPath() + ", " + g.recordPath() + ")"
	}
	return g.recordPath()
}
