package analysis

import (
	"slices"
	"strings"
	"testing"

	"gcx/internal/xqast"
)

// TestAttrTemplateRoles: computed constructor attributes derive value
// roles (string values need subtrees; attribute accesses only the
// owning elements).
func TestAttrTemplateRoles(t *testing.T) {
	plan := mustAnalyze(t, `for $i in /regions/item return <w name="{$i/name/text()}" id="{$i/@id}" d="{$i/loc}"/>`)
	var paths []string
	for _, r := range plan.Roles {
		paths = append(paths, r.Path.String())
	}
	joined := strings.Join(paths, "\n")
	for _, want := range []string{
		"/regions/item/name/text()",                    // text template: text nodes only
		"/regions/item/loc/descendant-or-self::node()", // element template: string value
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing role %q in:\n%s", want, joined)
		}
	}
	// @id template needs no role: attributes ride on the binding node.
	for _, p := range paths {
		if strings.Contains(p, "@") {
			t.Errorf("attribute step leaked into role %s", p)
		}
	}
}

// TestWhereClauseRoles: where desugars before analysis, so its operand
// roles match the explicit-if form exactly.
func TestWhereClauseRoles(t *testing.T) {
	sugar := mustAnalyze(t, `for $b in /bib/book where $b/price <= 40 return $b/title`)
	explicit := mustAnalyze(t, `for $b in /bib/book return if ($b/price <= 40) then $b/title else ()`)
	if len(sugar.Roles) != len(explicit.Roles) {
		t.Fatalf("role counts differ: %d vs %d", len(sugar.Roles), len(explicit.Roles))
	}
	for i := range sugar.Roles {
		if !sugar.Roles[i].Path.Equal(explicit.Roles[i].Path) {
			t.Errorf("role %d: %s vs %s", i, sugar.Roles[i].Path, explicit.Roles[i].Path)
		}
	}
}

// TestAggregateRoles: count keeps node-only roles; sum and friends need
// values.
func TestAggregateRoles(t *testing.T) {
	plan := mustAnalyze(t, `(count(/a/b), sum(/a/c))`)
	var countPath, sumPath string
	for _, r := range plan.Roles {
		if r.Kind == RoleAgg {
			if strings.HasPrefix(r.Provenance, "count") {
				countPath = r.Path.String()
			}
			if strings.HasPrefix(r.Provenance, "sum") {
				sumPath = r.Path.String()
			}
		}
	}
	if countPath != "/a/b" {
		t.Errorf("count role = %q, want /a/b", countPath)
	}
	if sumPath != "/a/c/descendant-or-self::node()" {
		t.Errorf("sum role = %q, want subtree path", sumPath)
	}
	if !plan.UsesAggregation {
		t.Error("UsesAggregation not set")
	}
}

// TestGuardHoistingKeepsBalanceStructure: loops under conditionals hoist
// their sign-offs out (one sign-off per role, placed unconditionally).
func TestGuardHoistingKeepsBalanceStructure(t *testing.T) {
	plan := mustAnalyze(t, `for $a in /x/y return
	   if (exists $a/k) then (for $b in $a/z return $b/w) else ()`)
	// The $b loop is guarded: its sign-offs must sit in $a's body (after
	// the if), not inside the loop.
	bLoop := findLoop(plan.Rewritten.Body, "b")
	if got := signOffStrings(bLoop.Body); len(got) != 0 {
		t.Fatalf("guarded loop still carries sign-offs: %v", got)
	}
	aLoop := findLoop(plan.Rewritten.Body, "a")
	aSigns := strings.Join(signOffStrings(aLoop.Body), "\n")
	for _, want := range []string{"signOff($a/z,", "signOff($a/z/w/descendant-or-self::node(),"} {
		if !strings.Contains(aSigns, want) {
			t.Errorf("hoisted sign-off %q missing from $a's body:\n%s", want, aSigns)
		}
	}
	// ... and they come after the if statement.
	stmts := statements(aLoop.Body)
	sawIf := false
	for _, s := range stmts {
		switch s.(type) {
		case *xqast.IfExpr:
			sawIf = true
		case *xqast.SignOff:
			if !sawIf {
				t.Fatal("sign-off before the guarded statement")
			}
		}
	}
}

// TestEveryRoleHasExactlyOneSignOff is the structural contract behind
// the balance property, across a corpus of tricky queries.
func TestEveryRoleHasExactlyOneSignOff(t *testing.T) {
	queries := []string{
		PaperQuery,
		`for $p in /s/p return (for $t in /s/c return if ($t/b = $p/a) then $t else ())`,
		`for $a in /x/y return if (exists $a/k) then (for $b in $a/z return $b/w) else ()`,
		`<o>{ (sum(/a/b), for $x in /a/b where $x/@id = "1" return <w v="{$x/c}"/>) }</o>`,
		`for $x in /a//b return for $y in $x//c return $y`,
	}
	for _, src := range queries {
		plan := mustAnalyze(t, src)
		seen := map[int]int{}
		xqast.Walk(plan.Rewritten.Body, func(e xqast.Expr) bool {
			if so, ok := e.(*xqast.SignOff); ok {
				seen[so.Role]++
			}
			return true
		})
		for _, r := range plan.Roles {
			if seen[r.ID] != 1 {
				t.Errorf("query %q: role %s has %d sign-offs", src, r.Name(), seen[r.ID])
			}
		}
		if len(seen) != len(plan.Roles) {
			t.Errorf("query %q: %d sign-offs for %d roles", src, len(seen), len(plan.Roles))
		}
	}
}

// TestPruneVerdict: a sign-off may prune exactly when its base is a loop
// variable bound by child steps only. Every loop-based sign-off of Q1,
// Q17 and J3 is marked; the sign-offs on Q6's and E1's descendant-bound
// $i, the build sides of Q8 and Q9 (hoisted to the root) and the root's
// own sign-off are not.
func TestPruneVerdict(t *testing.T) {
	qs := catalogQueries(t)
	qs["E1"] = `<result>{ for $r in /site/regions return for $i in $r//item return $i }</result>`
	for id, marked := range map[string]func(*xqast.SignOff) bool{
		"Q1":  func(so *xqast.SignOff) bool { return so.Base != xqast.RootVar },
		"Q17": func(so *xqast.SignOff) bool { return so.Base != xqast.RootVar },
		"J3":  func(so *xqast.SignOff) bool { return so.Base != xqast.RootVar },
		"Q6":  func(so *xqast.SignOff) bool { return so.Base != xqast.RootVar && so.Base != "i" },
		"E1":  func(so *xqast.SignOff) bool { return so.Base != xqast.RootVar && so.Base != "i" },
		"Q8":  func(so *xqast.SignOff) bool { return so.Base != xqast.RootVar },
		"Q9":  func(so *xqast.SignOff) bool { return so.Base != xqast.RootVar },
	} {
		plan := mustAnalyze(t, qs[id])
		var bases []string
		xqast.Walk(plan.Rewritten.Body, func(e xqast.Expr) bool {
			if so, ok := e.(*xqast.SignOff); ok {
				bases = append(bases, so.Base)
				if so.Prune != marked(so) {
					t.Errorf("%s: %s: prune %v", id, xqast.PrintExpr(so), so.Prune)
				}
				if plan.PruneSlots[so.Slot] != so.Prune {
					t.Errorf("%s: %s: slot %d prunes %v", id, xqast.PrintExpr(so), so.Slot, plan.PruneSlots[so.Slot])
				}
			}
			return true
		})
		if !slices.Contains(bases, xqast.RootVar) || len(bases) < 3 {
			t.Errorf("%s: sign-offs on %v, want some on loops and one on the root", id, bases)
		}
	}
	// The build sides are the top-level sign-offs after the wrapper.
	for _, id := range []string{"Q8", "Q9"} {
		top := signOffStrings(mustAnalyze(t, qs[id]).Rewritten.Body)
		if len(top) < 5 {
			t.Errorf("%s: top-level sign-offs %v, want the build side's", id, top)
		}
	}
}
