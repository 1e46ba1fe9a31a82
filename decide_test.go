package gcx_test

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/iotest"

	"gcx"
	"gcx/internal/xmark"
	"gcx/internal/xqgen"
)

// backing runs a query over an input document one way: from a byte
// slice, a reader, or a reader that returns one byte per Read.
type backing struct {
	name string
	run  func(q *gcx.Query, doc string, opts gcx.Options) (string, *gcx.Result, error)
}

var backings = []backing{
	{"bytes", func(q *gcx.Query, doc string, opts gcx.Options) (string, *gcx.Result, error) {
		var out strings.Builder
		res, err := q.ExecuteBytes([]byte(doc), &out, opts)
		return out.String(), res, err
	}},
	{"reader", func(q *gcx.Query, doc string, opts gcx.Options) (string, *gcx.Result, error) {
		var out strings.Builder
		res, err := q.Execute(strings.NewReader(doc), &out, opts)
		return out.String(), res, err
	}},
	{"one-byte reader", func(q *gcx.Query, doc string, opts gcx.Options) (string, *gcx.Result, error) {
		var out strings.Builder
		res, err := q.Execute(iotest.OneByteReader(strings.NewReader(doc)), &out, opts)
		return out.String(), res, err
	}},
}

// decisionShards are the shard counts the decision tests run at.
var decisionShards = []int{0, 2, 4}

// TestRepeatedKey pins the one-run-per-key rule of the JSON dialect
// (DESIGN.md §8): a condition decided at the end of a key's run fails
// the run with a RepeatedKeyError when the key comes back after another
// member, on every backing and sharded; a repeated key that no such
// decision read gives the DOM engine's output.
func TestRepeatedKey(t *testing.T) {
	const j1 = `for $r in /root/record return if ($r/bidder = "person0") then $r/amount else ()`
	const filler = `{"bidder":"person7","amount":"1"}` + "\n"
	for _, c := range []struct {
		name, query, record string
		// key is the repeated key the run fails on; empty when the run
		// must match the DOM engine.
		key string
	}{
		{"decided at the run's end, then repeated", j1,
			`{"bidder":"person1","seller":"s","bidder":"person0","amount":"5"}`, "bidder"},
		{"repeated right after a dead sibling", j1,
			`{"bidder":"person1","seller":"s","bidder":"person1"}`, "bidder"},
		{"an array is one run", j1,
			`{"bidder":["person9","person0"],"seller":"s","amount":"5"}`, ""},
		{"an array's items after its first question", j1,
			`{"bidder":[["person9"],"person0",[]],"amount":"5"}`, ""},
		{"an empty array decides at the close", j1,
			`{"bidder":[],"amount":"5"}`, ""},
		{"an empty array is no run", j1,
			`{"bidder":[],"seller":"s","bidder":"person0","amount":"5"}`, ""},
		{"decided by its first witness", j1,
			`{"bidder":"person0","seller":"s","bidder":"person1","amount":"5"}`, ""},
		{"a repeated key no decision reads", j1,
			`{"bidder":"person0","amount":"1","seller":"s","amount":"2"}`, ""},
		{"a repeated key before the decision's", j1,
			`{"amount":"1","bidder":"person0","amount":"2"}`, ""},
		{"exists decided at the run's end", `for $r in /root/record return if (exists $r/item/name) then $r/seller else ()`,
			`{"item":{"id":"1"},"seller":"s","item":{"name":"n"}}`, "item"},
		{"or decided by its other side", `for $r in /root/record return if ($r/a = "1" or $r/b = "2") then $r/c else ()`,
			`{"b":"2","a":"0","c":"x","a":"1"}`, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			doc := filler + c.record + "\n" + filler
			q := gcx.MustCompile(c.query)
			opts := gcx.Options{Format: gcx.FormatNDJSON}
			want, _, err := q.ExecuteString(doc, gcx.Options{Format: gcx.FormatNDJSON, Engine: gcx.EngineDOM})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range backings {
				for _, opts.Shards = range decisionShards {
					got, _, err := b.run(q, doc, opts)
					var rk *gcx.RepeatedKeyError
					switch {
					case c.key == "" && err != nil:
						t.Errorf("%s, %d shards: %v, want the DOM engine's output", b.name, opts.Shards, err)
					case c.key == "" && got != want:
						t.Errorf("%s, %d shards: output differs from the DOM engine\n got: %s\nwant: %s", b.name, opts.Shards, got, want)
					case c.key != "" && !errors.As(err, &rk):
						t.Errorf("%s, %d shards: err %v, want a RepeatedKeyError", b.name, opts.Shards, err)
					case c.key != "" && rk.Key != c.key:
						t.Errorf("%s, %d shards: repeated key %q, want %q", b.name, opts.Shards, rk.Key, c.key)
					}
				}
			}
		})
	}
}

// TestDecisionPeakJ1 pins J1's two decisions (DESIGN.md §3, "Decision
// timing"). A record the source reads whole is rejected from its bytes,
// with no token and no node, so the run appends the /root element and
// each accepted record's three nodes: itself, its bidder and the
// bidder's text (its amount streams). A record the source leaves to the
// token path — here every one, as its seller key holds an escape — is
// decided at the end of bidder's run: a rejected one's amount is pruned
// before the source asks about it, so every record buffers three nodes,
// four with /root. Both peak at 4.
func TestDecisionPeakJ1(t *testing.T) {
	q := gcx.MustCompile(xmark.NDJSONQueries["J1"].Text)
	for _, mib := range []int64{1, 4} {
		doc, st, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: mib << 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		accepted := int64(strings.Count(doc, `"bidder":"person0",`))
		kept := strings.ReplaceAll(doc, `"seller":`, `"sell\u0065r":`)
		for _, c := range []struct {
			name, doc string
			appended  int64
		}{
			{"read from the bytes", doc, 3*accepted + 1},
			{"left to the token path", kept, 3*int64(st.Items) + 1},
		} {
			for _, b := range backings[:2] {
				_, res, err := b.run(q, c.doc, gcx.Options{Format: gcx.FormatNDJSON})
				if err != nil {
					t.Fatal(err)
				}
				if res.PeakBufferedNodes != 4 || res.TotalAppended != c.appended {
					t.Errorf("%d MiB, %s, %s: peak %d, %d nodes appended over %d records, %d accepted; want peak 4 and %d appended",
						mib, c.name, b.name, res.PeakBufferedNodes, res.TotalAppended, st.Items, accepted, c.appended)
				}
			}
		}
	}
}

// conditionKeys are the member names a J-shaped query's condition reads
// first: the keys whose runs its decisions may read.
var conditionKeys = regexp.MustCompile(`\$r/(\w+)`)

// TestDecisionProperty runs generated J-shaped queries (xqgen.RecordQuery)
// over generated records — permuted members, arrays, absent members and,
// in every other document, keys repeated after another member — on every
// backing at 1, 2 and 4 shards, with the record scan on (the plan's
// filter, when it has one) and off (WithoutSkip). Each run must give the
// DOM engine's output, or fail with a RepeatedKeyError on a key that some
// record repeats and the condition reads. The same records as an XML
// document, where a repeated key is siblings interleaved with others,
// never take the run-end path: every run there gives the DOM engine's
// output.
func TestDecisionProperty(t *testing.T) {
	filtered := 0
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := xqgen.Records(r, 2+r.Intn(6), seed%2 == 0)
		query := xqgen.RecordQuery(r)
		q := gcx.MustCompile(query)
		if recordFiltered(q) {
			filtered++
		}
		cond := query[strings.Index(query, "if ("):strings.Index(query, ") then")]
		allowed := map[string]bool{}
		for key := range xqgen.RepeatedKeys(doc) {
			for _, m := range conditionKeys.FindAllStringSubmatch(cond, -1) {
				allowed[key] = allowed[key] || m[1] == key
			}
		}
		xml := renderNDJSONAsXML(t, doc)
		for _, f := range []gcx.Format{gcx.FormatNDJSON, gcx.FormatXML} {
			in := doc
			if f == gcx.FormatXML {
				in = xml
			}
			want, _, err := q.ExecuteString(in, gcx.Options{Format: f, Engine: gcx.EngineDOM})
			if err != nil {
				t.Fatalf("seed %d: DOM engine: %v", seed, err)
			}
			for _, b := range backings {
				for _, scan := range scanRows(q) {
					for _, shards := range decisionShards {
						got, _, err := b.run(scan.q, in, gcx.Options{Format: f, Shards: shards})
						var rk *gcx.RepeatedKeyError
						switch {
						case errors.As(err, &rk) && f == gcx.FormatNDJSON && allowed[rk.Key]:
						case err != nil:
							t.Fatalf("seed %d, %s, %s, %s, %d shards: %v\nquery: %s\ndoc: %s", seed, f, b.name, scan.name, shards, err, query, in)
						case got != want:
							t.Fatalf("seed %d, %s, %s, %s, %d shards: output differs from the DOM engine\n got: %s\nwant: %s\nquery: %s\ndoc: %s",
								seed, f, b.name, scan.name, shards, got, want, query, in)
						}
					}
				}
			}
		}
	}
	// The record scan must be reached: a generated query qualifies when
	// its else branch is empty and its atoms read one member each.
	t.Logf("%d of 500 generated queries have a record filter", filtered)
	if filtered < 10 {
		t.Errorf("%d of 500 generated queries have a record filter, want at least 10", filtered)
	}
}

// scanRow is a query run with the record scan on or off.
type scanRow struct {
	name string
	q    *gcx.Query
}

// scanRows are q with the record scan on, as compiled, and off: its
// WithoutSkip copy, whose runs neither skip nor decide before a close.
func scanRows(q *gcx.Query) []scanRow {
	return []scanRow{{"scan on", q}, {"scan off", gcx.WithoutSkip(q)}}
}

// recordFiltered reports whether q's plan has a record filter: some
// decision's verdict names the record's bytes.
func recordFiltered(q *gcx.Query) bool {
	for _, d := range q.Report().Decisions {
		if strings.HasPrefix(d.Verdict, "record bytes") {
			return true
		}
	}
	return false
}

// FuzzDecisionParity checks decisions taken before a binding's close
// against the DOM engine, on the shapes TestDecisionProperty generates
// and whatever the fuzzer makes of them: over NDJSON on the byte
// backing and a one-byte reader, a run gives the DOM engine's output and
// error class, or fails with a RepeatedKeyError on a key the document
// holds more than once. As in FuzzSkipParity, a run may succeed where
// the DOM engine reports an error inside a subtree the run skips.
func FuzzDecisionParity(f *testing.F) {
	for i := int64(0); i < 16; i++ {
		r := rand.New(rand.NewSource(i))
		f.Add(xqgen.RecordQuery(r), xqgen.Records(r, 4, i%2 == 0))
	}
	f.Add(xmark.NDJSONQueries["J1"].Text, `{"bidder":"person1","seller":"s","bidder":"person0","amount":"5"}`)
	// Records the scan drops, keeps and leaves to the token path.
	f.Add(xmark.NDJSONQueries["J1"].Text, "{\"bidder\":\"person1\",\"item\":{\"a\":[1]}}\n{\"bidder\":\"person0\",\"amount\":\"5\"}\n{\"bidder\":\"person\\u0030\",\"amount\":\"6\"}\n")
	f.Add(xmark.NDJSONQueries["J3"].Text, "{\"seller\":\"s1\",\"reserve\":\"1\"}\n{\"seller\":\"s2\"}\n{\"seller\":{\"x\":1},\"reserve\":null}\n")
	f.Fuzz(func(t *testing.T, query, doc string) {
		if len(query) > 1<<10 || len(doc) > 8<<10 || nestedWork(query, doc) > 1e6 {
			return
		}
		q, err := gcx.Compile(query)
		if err != nil {
			return
		}
		opts := gcx.Options{Format: gcx.FormatNDJSON}
		want, _, werr := q.ExecuteString(doc, gcx.Options{Format: gcx.FormatNDJSON, Engine: gcx.EngineDOM})
		for _, b := range []backing{backings[0], backings[2]} {
			for _, scan := range scanRows(q) {
				got, _, err := b.run(scan.q, doc, opts)
				var rk *gcx.RepeatedKeyError
				switch {
				case errors.As(err, &rk):
					if strings.Count(doc, `"`+rk.Key+`"`) < 2 {
						t.Fatalf("%s, %s: repeated key %q, which the document holds once\nquery: %s\ndoc: %q", b.name, scan.name, rk.Key, query, doc)
					}
				case werr != nil && err == nil:
					// The raw scan's superset dialect inside a dead subtree
					// (DESIGN.md §7), as in FuzzSkipParity.
				case errClass(err) != errClass(werr):
					t.Fatalf("%s, %s: error %v, DOM engine %v\nquery: %s\ndoc: %q", b.name, scan.name, err, werr, query, doc)
				case err == nil && got != want:
					t.Fatalf("%s, %s: output differs from the DOM engine\n got: %s\nwant: %s\nquery: %s\ndoc: %q", b.name, scan.name, got, want, query, doc)
				}
			}
		}
	})
}
