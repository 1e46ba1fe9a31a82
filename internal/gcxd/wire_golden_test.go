package gcxd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestWireGolden pins the names gcxd puts on the wire — the response
// trailers of a traced query (declared and set), the keys of /stats and
// each /metrics family's name, help text and type — against
// testdata/wire.golden. Dashboards and clients address these by name,
// so a change to how they are registered or rendered must leave the
// file byte-identical; regenerate with
// `UPDATE_GOLDEN=1 go test -run TestWireGolden ./internal/gcxd` only
// when a name is added on purpose.
func TestWireGolden(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The trailer names come from a recorder: a real client strips the
	// Trailer declaration from the response header. Names are compared as
	// sorted sets — their order on the wire carries no meaning.
	var got bytes.Buffer
	req := httptest.NewRequest(http.MethodPost, "/query?trace=1&query="+url.QueryEscape(testQuery), strings.NewReader(testDoc(0, 10)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: status %d: %s", rec.Code, rec.Body)
	}
	declared := strings.Split(rec.Header().Get("Trailer"), ", ")
	sort.Strings(declared)
	fmt.Fprintf(&got, "trailers declared: %s\n", strings.Join(declared, ", "))
	var set []string
	for name, vals := range rec.Result().Trailer {
		if len(vals) > 0 && vals[0] != "" {
			set = append(set, name)
		}
	}
	sort.Strings(set)
	fmt.Fprintf(&got, "trailers set: %s\n", strings.Join(set, ", "))

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats map[string]int64
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&got, "stats keys: %s\n", strings.Join(keys, ", "))

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	expo, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// One "name help… | type" line per family, sorted by name: the
	// exposition lists families in registration order, which is not part
	// of the contract.
	var families []string
	lines := strings.Split(string(expo), "\n")
	for i, line := range lines {
		if help, ok := strings.CutPrefix(line, "# HELP "); ok && i+1 < len(lines) {
			typ := strings.Fields(lines[i+1])
			families = append(families, help+" | "+typ[len(typ)-1])
		}
	}
	sort.Strings(families)
	for _, f := range families {
		fmt.Fprintln(&got, "metric: "+f)
	}

	const golden = "testdata/wire.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire names drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, got.Bytes(), want)
	}
}

// TestTrailerDocs: the trailer lists in cmd/gcxd's package comment and
// in the README name every trailer the server declares — the list is
// derived from the statistics table, so a field that gains a trailer
// fails here until both documents mention it.
func TestTrailerDocs(t *testing.T) {
	for _, path := range []string{"../../cmd/gcxd/main.go", "../../README.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range strings.Split(trailerNames, ", ") {
			if !bytes.Contains(doc, []byte(name)) {
				t.Errorf("%s does not mention the %s trailer", path, name)
			}
		}
	}
}
