package analysis

import (
	"strings"
	"testing"

	"gcx/internal/xqast"
	"gcx/internal/xqparse"
)

// PaperQuery is the running example of the paper (§1).
const PaperQuery = `<r> {
for $bib in /bib return
(for $x in $bib/* return
   if (not(exists $x/price)) then $x else (),
 for $b in $bib/book return $b/title)
} </r>`

func mustAnalyze(t *testing.T, src string) *Plan {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := Analyze(q)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return plan
}

// TestPaperRoles checks that the running example derives exactly the
// seven roles of the paper, in the paper's order and with the paper's
// paths (§2).
func TestPaperRoles(t *testing.T) {
	plan := mustAnalyze(t, PaperQuery)
	want := []string{
		"/",
		"/bib",
		"/bib/*",
		"/bib/*/price[1]",
		"/bib/*/descendant-or-self::node()",
		"/bib/book",
		"/bib/book/title/descendant-or-self::node()",
	}
	if len(plan.Roles) != len(want) {
		var got []string
		for _, r := range plan.Roles {
			got = append(got, r.Path.String())
		}
		t.Fatalf("got %d roles %v, want %d", len(plan.Roles), got, len(want))
	}
	for i, r := range plan.Roles {
		if r.Path.String() != want[i] {
			t.Errorf("r%d = %s, want %s", i+1, r.Path, want[i])
		}
	}
	kinds := []RoleKind{RoleRoot, RoleBinding, RoleBinding, RoleExists, RoleOutput, RoleBinding, RoleOutput}
	for i, r := range plan.Roles {
		if r.Kind != kinds[i] {
			t.Errorf("r%d kind = %s, want %s", i+1, r.Kind, kinds[i])
		}
	}
}

// collectSignOffs returns the sign-offs inside a loop body (or query
// top), in order, rendered as text.
func signOffStrings(e xqast.Expr) []string {
	var out []string
	for _, stmt := range statements(e) {
		if so, ok := stmt.(*xqast.SignOff); ok {
			out = append(out, xqast.PrintExpr(so))
		}
	}
	return out
}

// findLoop locates the for-loop binding the given variable.
func findLoop(e xqast.Expr, v string) *xqast.ForExpr {
	var found *xqast.ForExpr
	xqast.Walk(e, func(e xqast.Expr) bool {
		if f, ok := e.(*xqast.ForExpr); ok && f.Var == v {
			found = f
			return false
		}
		return true
	})
	return found
}

// TestPaperSignOffPlacement verifies the rewritten running example:
//
//	for $x in $bib/* return (if …, signOff($x,r3),
//	    signOff($x/price[1],r4), signOff($x/descendant-or-self::node(),r5))
//	for $b in $bib/book return ($b/title, signOff($b,r6),
//	    signOff($b/title/descendant-or-self::node(),r7))
//	… signOff($bib,r2) at the end of the outer loop.
func TestPaperSignOffPlacement(t *testing.T) {
	plan := mustAnalyze(t, PaperQuery)
	body := plan.Rewritten.Body

	xLoop := findLoop(body, "x")
	if xLoop == nil {
		t.Fatal("loop $x not found")
	}
	got := signOffStrings(xLoop.Body)
	// Every loop of the example is bound by child steps, so each of its
	// sign-offs may prune; the root's may not.
	want := []string{
		"signOff($x, r3, prune)",
		"signOff($x/price[1], r4, prune)",
		"signOff($x/descendant-or-self::node(), r5, prune)",
	}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("$x loop sign-offs = %v, want %v", got, want)
	}

	bLoop := findLoop(body, "b")
	got = signOffStrings(bLoop.Body)
	want = []string{
		"signOff($b, r6, prune)",
		"signOff($b/title/descendant-or-self::node(), r7, prune)",
	}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("$b loop sign-offs = %v, want %v", got, want)
	}

	bibLoop := findLoop(body, "bib")
	got = signOffStrings(bibLoop.Body)
	want = []string{"signOff($bib, r2, prune)"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("$bib loop sign-offs = %v, want %v", got, want)
	}
	// signOff($bib, r2) must come after both inner loops.
	stmts := statements(bibLoop.Body)
	if len(stmts) != 3 {
		t.Fatalf("outer body has %d statements, want 3 (two loops + signOff)", len(stmts))
	}
	if _, ok := stmts[2].(*xqast.SignOff); !ok {
		t.Error("signOff($bib, r2) must be the last statement")
	}

	// r1 is signed off at the very end of the query, outside <r>.
	top := statements(body)
	last, ok := top[len(top)-1].(*xqast.SignOff)
	if !ok || last.Role != 0 {
		t.Errorf("top level must end with signOff(/, r1); got %v", xqast.PrintExpr(top[len(top)-1]))
	}
}

// TestNormalizationSplitsMultiStepLoops: for $p in /site/people/person
// becomes three nested single-step loops, each level getting a role.
func TestNormalizationSplitsMultiStepLoops(t *testing.T) {
	plan := mustAnalyze(t, `for $p in /site/people/person return $p/name`)
	// roles: r1 /, /site, /site/people, /site/people/person,
	// /site/people/person/name/d-o-s
	want := []string{
		"/",
		"/site",
		"/site/people",
		"/site/people/person",
		"/site/people/person/name/descendant-or-self::node()",
	}
	if len(plan.Roles) != len(want) {
		t.Fatalf("got %d roles, want %d: %v", len(plan.Roles), len(want), plan.Roles)
	}
	for i, r := range plan.Roles {
		if r.Path.String() != want[i] {
			t.Errorf("r%d = %s, want %s", i+1, r.Path, want[i])
		}
	}
	// The user variable binds the innermost loop.
	if findLoop(plan.Rewritten.Body, "p") == nil {
		t.Fatal("user variable lost in normalization")
	}
}

// TestJoinHoisting is the crucial Q8-shaped case: the inner loop scans an
// absolute path inside an outer loop, so its roles must NOT be signed
// off per inner iteration — they hoist to the top level, after the outer
// loop. That is what parks the join partners in the buffer (Fig. 4(b)).
func TestJoinHoisting(t *testing.T) {
	src := `for $p in /site/people/person return
	          (for $t in /site/closed_auctions/closed_auction return
	             if ($t/buyer/@person = $p/@id) then $t/price else ())`
	plan := mustAnalyze(t, src)

	// Find the innermost auction loop ($t): its body must contain NO
	// sign-off for $t's binding role.
	tLoop := findLoop(plan.Rewritten.Body, "t")
	if tLoop == nil {
		t.Fatal("loop $t not found")
	}
	for _, s := range signOffStrings(tLoop.Body) {
		if strings.Contains(s, "$t,") || strings.Contains(s, "$t/price") || strings.Contains(s, "$t/buyer") {
			t.Errorf("sign-off %q must not be inside the $t loop", s)
		}
	}

	// Top level: sign-offs with absolutized /site/closed_auctions/...
	// paths must appear after the outer loop.
	top := statements(plan.Rewritten.Body)
	var hoisted []string
	for _, stmt := range top {
		if so, ok := stmt.(*xqast.SignOff); ok {
			hoisted = append(hoisted, xqast.PrintExpr(so))
		}
	}
	joined := strings.Join(hoisted, "\n")
	for _, want := range []string{
		"signOff(/site/closed_auctions/closed_auction,",
		"signOff(/site/closed_auctions/closed_auction/buyer,",
		"signOff(/site/closed_auctions/closed_auction/price/descendant-or-self::node(),",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("top-level sign-offs missing %q; got:\n%s", want, joined)
		}
	}

	// The person-chain roles stay loop-local: $p's binding sign-off is
	// inside $p's loop.
	pLoop := findLoop(plan.Rewritten.Body, "p")
	found := false
	for _, s := range signOffStrings(pLoop.Body) {
		if s == "signOff($p, r4, prune)" {
			found = true
		}
	}
	if !found {
		t.Errorf("person binding role not signed off per iteration: %v", signOffStrings(pLoop.Body))
	}

	// Both /site loops (person chain and auction chain) create distinct
	// roles over the same path.
	siteRoles := 0
	for _, r := range plan.Roles {
		if r.Path.String() == "/site" {
			siteRoles++
		}
	}
	if siteRoles != 2 {
		t.Errorf("expected 2 distinct /site roles (one per occurrence), got %d", siteRoles)
	}
}

// TestIntermediateHoistPlacement: a role anchored in an outer loop but
// used inside a deeper root-bound loop places at the anchor's loop, not
// deeper and not at top.
func TestIntermediateHoistPlacement(t *testing.T) {
	src := `for $a in /x return
	          (for $q in /foo return
	             if ($q/k = $a/w) then $q else ())`
	plan := mustAnalyze(t, src)
	aLoop := findLoop(plan.Rewritten.Body, "a")
	qLoop := findLoop(plan.Rewritten.Body, "q")
	// $a/w's operand role: inside $a loop (safe: chain {a}, enclosing {a}).
	aSigns := strings.Join(signOffStrings(aLoop.Body), "\n")
	if !strings.Contains(aSigns, "signOff($a/w/descendant-or-self::node()") {
		t.Errorf("$a/w operand role should be signed off in $a's loop:\n%s", aSigns)
	}
	// $q roles hoist to top (the $q loop re-executes per $a).
	for _, s := range signOffStrings(qLoop.Body) {
		t.Errorf("no sign-off may remain in the root-bound inner loop, found %q", s)
	}
	top := strings.Join(signOffStrings(plan.Rewritten.Body), "\n")
	for _, want := range []string{"signOff(/foo", "signOff(/foo/k", "signOff(/foo/descendant-or-self::node()"} {
		if !strings.Contains(top, want) {
			t.Errorf("top-level sign-offs missing %q; got:\n%s", want, top)
		}
	}
}

// TestAttributeOperandsNeedNoExtraRole: comparing $p/@id creates no role
// ($p is buffered by its binding role; attributes ride along).
func TestAttributeOperandsNeedNoExtraRole(t *testing.T) {
	plan := mustAnalyze(t, `for $p in /people/person return
	   if ($p/@id = "person0") then $p/name else ()`)
	for _, r := range plan.Roles {
		if strings.Contains(r.Path.String(), "@") {
			t.Errorf("role with attribute step: %s", r.Path)
		}
	}
	// roles: r1 /, /people, /people/person, name output
	if len(plan.Roles) != 4 {
		t.Fatalf("got %d roles, want 4: %+v", len(plan.Roles), plan.Roles)
	}
}

// TestAttributeOperandOnChildPath: $t/buyer/@person requires the buyer
// element (not its subtree).
func TestAttributeOperandOnChildPath(t *testing.T) {
	plan := mustAnalyze(t, `for $t in /a/t return if ($t/buyer/@person = "x") then $t else ()`)
	found := false
	for _, r := range plan.Roles {
		if r.Path.String() == "/a/t/buyer" && r.Kind == RoleOperand {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing element-only operand role for $t/buyer/@person: %+v", plan.Roles)
	}
}

// TestExistsGetsFirstWitness: exists($x/price) roles carry [1].
func TestExistsGetsFirstWitness(t *testing.T) {
	plan := mustAnalyze(t, `for $x in /bib/e return if (exists $x/price) then "y" else "n"`)
	found := false
	for _, r := range plan.Roles {
		if r.Kind == RoleExists {
			if !r.Path.LastStep().FirstOnly {
				t.Errorf("exists role lacks [1]: %s", r.Path)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no exists role derived")
	}
}

// TestCountRoleHasNoSubtreeExpansion: count() needs nodes, not subtrees.
func TestCountRoleHasNoSubtreeExpansion(t *testing.T) {
	plan := mustAnalyze(t, `for $x in /a/b return count($x/bidder)`)
	if !plan.UsesAggregation {
		t.Fatal("UsesAggregation not set")
	}
	found := false
	for _, r := range plan.Roles {
		if r.Kind == RoleAgg {
			if r.Path.String() != "/a/b/bidder" {
				t.Errorf("count role = %s, want /a/b/bidder", r.Path)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no count role derived")
	}
}

// TestTextFinalRole: $x/name/text() projects the text nodes themselves.
func TestTextFinalRole(t *testing.T) {
	plan := mustAnalyze(t, `for $x in /a/b return $x/name/text()`)
	found := false
	for _, r := range plan.Roles {
		if r.Path.String() == "/a/b/name/text()" {
			found = true
		}
	}
	if !found {
		t.Fatalf("text() output role missing: %+v", plan.Roles)
	}
}

// TestNormalizeErrors: scoping and fragment violations are rejected.
func TestNormalizeErrors(t *testing.T) {
	cases := []string{
		`$undeclared/name`,
		`for $x in /a return $y`,
		`for $x in /a return for $x in $x/b return $x`, // shadowing
		`for $x in /a/self::b return $x`,               // self axis in binding
		`for $x in /a/text()/b return $x`,              // text() mid-binding
		`if (exists $zzz/a) then "y" else "n"`,
	}
	for _, src := range cases {
		q, err := xqparse.Parse(src)
		if err != nil {
			t.Fatalf("parse(%q): %v", src, err)
		}
		if _, err := Analyze(q); err == nil {
			t.Errorf("Analyze(%q): expected error", src)
		}
	}
}

// TestPlanReportInputs: every field the public ExplainReport renders
// from (the text form now lives in the root package as
// ExplainReport.Text, single source of truth) is populated by analysis.
func TestPlanReportInputs(t *testing.T) {
	plan := mustAnalyze(t, PaperQuery)
	if len(plan.Roles) == 0 {
		t.Fatal("no roles")
	}
	if !strings.Contains(xqast.Print(plan.Rewritten), "signOff($bib, r2, prune)") {
		t.Error("rewritten query misses signOff($bib, r2, prune)")
	}
	if plan.Stream.Reason == "" {
		t.Error("empty streamability reason")
	}
	if plan.Automaton == nil && plan.SkipReason == "" {
		t.Error("nil automaton without a skip reason")
	}
}

// TestNormalizedPreserved: Plan.Normalized contains no sign-offs.
func TestNormalizedPreserved(t *testing.T) {
	plan := mustAnalyze(t, PaperQuery)
	xqast.Walk(plan.Normalized.Body, func(e xqast.Expr) bool {
		if _, ok := e.(*xqast.SignOff); ok {
			t.Fatal("Normalized must not contain signOff nodes")
		}
		return true
	})
	// Rewritten does contain them.
	count := 0
	xqast.Walk(plan.Rewritten.Body, func(e xqast.Expr) bool {
		if _, ok := e.(*xqast.SignOff); ok {
			count++
		}
		return true
	})
	if count != len(plan.Roles) {
		t.Fatalf("%d sign-offs for %d roles (must be 1:1)", count, len(plan.Roles))
	}
}

// TestDescendantLoopChainPlacement: descendant-axis loops anchored
// through the chain keep per-iteration sign-offs.
func TestDescendantLoopChainPlacement(t *testing.T) {
	plan := mustAnalyze(t, `for $r in /site/regions return for $i in $r//item return $i/name`)
	iLoop := findLoop(plan.Rewritten.Body, "i")
	signs := strings.Join(signOffStrings(iLoop.Body), "\n")
	if !strings.Contains(signs, "signOff($i, ") {
		t.Errorf("descendant loop binding should sign off per iteration:\n%s", signs)
	}
	if !strings.Contains(signs, "signOff($i/name/descendant-or-self::node(), ") {
		t.Errorf("output role should sign off per iteration:\n%s", signs)
	}
	roleFound := false
	for _, r := range plan.Roles {
		if r.Path.String() == "/site/regions/descendant::item" {
			roleFound = true
		}
	}
	if !roleFound {
		t.Fatalf("descendant binding role missing: %+v", plan.Roles)
	}
}

func TestRolePathsOrder(t *testing.T) {
	plan := mustAnalyze(t, PaperQuery)
	paths := plan.RolePaths()
	if len(paths) != len(plan.Roles) {
		t.Fatal("RolePaths length mismatch")
	}
	for i := range paths {
		if !paths[i].Equal(plan.Roles[i].Path) {
			t.Fatalf("RolePaths[%d] mismatch", i)
		}
	}
}
