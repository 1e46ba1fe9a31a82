package analysis

import (
	"fmt"
	"strings"
	"testing"

	"gcx/internal/event"
)

// printFilter renders a record filter's condition for comparison.
func printFilter(f *event.RecordFilter, c *event.FilterCond) string {
	switch c.Op {
	case event.FilterExists:
		return "exists " + f.Keys[c.Key]
	case event.FilterEq:
		return fmt.Sprintf("%s = %q", f.Keys[c.Key], c.Lit)
	case event.FilterNe:
		return fmt.Sprintf("%s != %q", f.Keys[c.Key], c.Lit)
	case event.FilterNot:
		return "not(" + printFilter(f, c.Args[0]) + ")"
	case event.FilterAnd:
		return "(" + printFilter(f, c.Args[0]) + " and " + printFilter(f, c.Args[1]) + ")"
	}
	return "(" + printFilter(f, c.Args[0]) + " or " + printFilter(f, c.Args[1]) + ")"
}

// TestRecordFilter pins which record loops compile a filter
// (recordFilter): the condition, the keys it reads, the members other
// roles step into, and the verdicts of its atoms.
func TestRecordFilter(t *testing.T) {
	const loop = `for $r in /root/record return `
	for _, c := range []struct {
		query string
		// cond is the compiled condition, empty when the plan has no
		// filter; live the live members, "*" for every one.
		cond, live string
	}{
		{loop + `if ($r/bidder = "person0") then $r/amount else ()`, `bidder = "person0"`, "amount"},
		{loop + `if (not(exists $r/reserve)) then $r/seller else ()`, `not(exists reserve)`, "seller"},
		{loop + `if ("x" != $r/a and ($r/b = "1" or exists $r/a)) then ($r/c, $r/d/e) else ()`,
			`(a != "x" and (b = "1" or exists a))`, "c d"},
		{`<out>{` + loop + `if ($r/a = "x") then $r else ()}</out>`, `a = "x"`, "*"},
		{loop + `if ($r/a = "x") then $r/a else ()`, `a = "x"`, ""},
		{loop + `if ($r/a = "x") then "hit" else ()`, `a = "x"`, ""},
		// Not qualifying: a branch in the else, another comparison, a
		// number, a path of two steps or of an attribute, an outer
		// variable, another binding path, a loop in between, no if.
		{loop + `if ($r/a = "x") then $r/b else $r/c`, "", ""},
		{loop + `if ($r/a < 3) then $r/b else ()`, "", ""},
		{loop + `if ($r/a = 1) then $r/b else ()`, "", ""},
		{loop + `if ($r/a/b = "x") then $r/b else ()`, "", ""},
		{loop + `if ($r/@id = "x") then $r/b else ()`, "", ""},
		{loop + `if ($r/a = $r/b) then $r/b else ()`, "", ""},
		{`for $x in /root return for $r in $x/record return if ($r/a = "x") then $x/record else ()`, "", ""},
		{`for $r in /root/* return if ($r/a = "x") then $r/b else ()`, "", ""},
		{`for $r in /site/record return if ($r/a = "x") then $r/b else ()`, "", ""},
		{loop + `for $b in $r/b return if ($r/a = "x") then $b else ()`, "", ""},
		{loop + `$r/b`, "", ""},
		{`(` + loop + `if ($r/a = "x") then $r/b else (), count(/root/record))`, "", ""},
	} {
		plan := mustAnalyze(t, c.query)
		f := plan.Filter
		var bytes []string
		for _, v := range plan.Decisions {
			if v.Bytes {
				bytes = append(bytes, v.String())
			}
		}
		if c.cond == "" {
			if f != nil || len(bytes) != 0 {
				t.Errorf("%s: filter %+v, verdicts %q; want none", c.query, f, bytes)
			}
			continue
		}
		if f == nil {
			t.Errorf("%s: no filter, want %s", c.query, c.cond)
			continue
		}
		live := strings.Join(f.Live, " ")
		if f.LiveAll {
			live = "*"
		}
		if got := printFilter(f, f.Cond); got != c.cond || live != c.live {
			t.Errorf("%s: filter %s with live members %q, want %s with %q", c.query, got, live, c.cond, c.live)
		}
		if len(bytes) != len(plan.Decisions) || bytes[0] != "record bytes (JSON), else run end or first witness" {
			t.Errorf("%s: verdicts %q of %d", c.query, bytes, len(plan.Decisions))
		}
	}
}
