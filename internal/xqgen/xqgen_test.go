package xqgen

import (
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gcx/internal/analysis"
	"gcx/internal/xmltok"
	"gcx/internal/xqast"
	"gcx/internal/xqparse"
)

// TestDocumentsWellFormed: every generated document tokenizes cleanly.
func TestDocumentsWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		doc := Document(rand.New(rand.NewSource(seed)))
		tz := xmltok.NewTokenizer(strings.NewReader(doc))
		for {
			_, err := tz.Next()
			if err == io.EOF {
				return true
			}
			if err != nil {
				t.Logf("seed %d: %v\n%s", seed, err, doc)
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueriesCompile: every generated query parses and analyzes — any
// failure is a generator or compiler bug.
func TestQueriesCompile(t *testing.T) {
	f := func(seed int64) bool {
		src := Query(rand.New(rand.NewSource(seed)), DefaultOptions())
		q, err := xqparse.Parse(src)
		if err != nil {
			t.Logf("seed %d does not parse: %v\n%s", seed, err, src)
			return false
		}
		if _, err := analysis.Analyze(q); err != nil {
			t.Logf("seed %d does not analyze: %v\n%s", seed, err, src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPrintParseStability: print∘parse is idempotent on generated
// queries (the parser and printer agree on the whole fragment).
func TestPrintParseStability(t *testing.T) {
	f := func(seed int64) bool {
		src := Query(rand.New(rand.NewSource(seed)), DefaultOptions())
		q1, err := xqparse.Parse(src)
		if err != nil {
			return false
		}
		printed := xqast.Print(q1)
		q2, err := xqparse.Parse(printed)
		if err != nil {
			t.Logf("seed %d: printed form does not reparse: %v\n%s", seed, err, printed)
			return false
		}
		if xqast.Print(q2) != printed {
			t.Logf("seed %d: print not stable:\n%s\nvs\n%s", seed, printed, xqast.Print(q2))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsRespected: disabled features never appear.
func TestOptionsRespected(t *testing.T) {
	opts := Options{MaxLoops: 2, Aggregates: false, AttrTemplates: false, Where: false}
	for seed := int64(0); seed < 100; seed++ {
		src := Query(rand.New(rand.NewSource(seed)), opts)
		for _, forbidden := range []string{"count(", "sum(", "min(", "max(", "avg(", " where ", `v="{`} {
			if strings.Contains(src, forbidden) {
				t.Fatalf("seed %d: %q appeared with feature disabled:\n%s", seed, forbidden, src)
			}
		}
		if strings.Count(src, "for $") > 2 {
			t.Fatalf("seed %d: more than MaxLoops loops:\n%s", seed, src)
		}
	}
}

// TestRecordsAndRecordQueries: every generated record is one line of
// valid JSON, RepeatedKeys finds exactly the keys a record repeats
// after another member, and every generated J-shaped query parses and
// analyzes.
func TestRecordsAndRecordQueries(t *testing.T) {
	repeats := 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := Records(r, 4, true)
		for _, line := range strings.Split(strings.TrimSuffix(doc, "\n"), "\n") {
			if !json.Valid([]byte(line)) {
				t.Fatalf("seed %d: invalid record %s", seed, line)
			}
		}
		repeats += len(RepeatedKeys(doc))
		src := RecordQuery(r)
		q, err := xqparse.Parse(src)
		if err == nil {
			_, err = analysis.Analyze(q)
		}
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
	if repeats == 0 {
		t.Error("no generated record repeats a key")
	}
	for doc, want := range map[string]string{
		`{"a":1,"b":[],"a":2}` + "\n":            "a",
		`{"a":[1,2],"b":{"b":1,"c":2,"b":3}}`:    "",
		`{"a":"x\"b","b":1,"c":{"a":1},"b":2}`:   "b",
		`{"a":1,"a":2}` + "\n" + `{"c":1,"b":1}`: "",
	} {
		got := ""
		for k := range RepeatedKeys(doc) {
			got += k
		}
		if got != want {
			t.Errorf("RepeatedKeys(%s) = %q, want %q", doc, got, want)
		}
	}
}
