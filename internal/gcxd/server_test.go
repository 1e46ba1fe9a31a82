package gcxd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

const testQuery = `<out>{ for $b in /bib/book return $b/title }</out>`

// testDoc builds a distinct input per stream id so concurrent requests
// can be told apart by their outputs.
func testDoc(id, books int) string {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&sb, "<book><title>t%d-%d</title><price>%d</price></book>", id, i, i)
	}
	sb.WriteString("</bib>")
	return sb.String()
}

func expectedOutput(t *testing.T, query, doc string) string {
	t.Helper()
	q, err := gcx.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := q.ExecuteString(doc, gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func postQuery(t *testing.T, baseURL, query, doc, params string) (*http.Response, string) {
	t.Helper()
	u := baseURL + "/query?query=" + url.QueryEscape(query)
	if params != "" {
		u += "&" + params
	}
	resp, err := http.Post(u, "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, string(body)
}

// TestServerConcurrentRequests drives the full HTTP path with many
// concurrent streams sharing one cached query, checking each response
// against the sequential engine output.
func TestServerConcurrentRequests(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	const goroutines = 16
	want := make([]string, goroutines)
	docs := make([]string, goroutines)
	for i := range docs {
		docs[i] = testDoc(i, 20+i)
		want[i] = expectedOutput(t, testQuery, docs[i])
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postQuery(t, ts.URL, testQuery, docs[i], "")
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("stream %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			if body != want[i] {
				errs <- fmt.Errorf("stream %d: got %q, want %q", i, body, want[i])
				return
			}
			if got := resp.Trailer.Get("X-Gcx-Tokens"); got == "" {
				errs <- fmt.Errorf("stream %d: missing X-Gcx-Tokens trailer", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, body := postQuery(t, ts.URL, testQuery, docs[0], "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request: status %d: %s", resp.StatusCode, body)
	}
	var stats struct {
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (one compile for the shared query)", stats.CacheMisses)
	}
	if stats.CacheHits < goroutines {
		t.Errorf("cache hits = %d, want >= %d", stats.CacheHits, goroutines)
	}
}

func TestServerEngines(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	doc := testDoc(0, 10)
	want := expectedOutput(t, testQuery, doc)
	// The canonical names and the aliases of gcx.ParseEngine.
	for _, engine := range []string{"gcx", "projection", "dom", "nogc", "naive"} {
		resp, body := postQuery(t, ts.URL, testQuery, doc, "engine="+engine)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %s: status %d: %s", engine, resp.StatusCode, body)
		}
		if body != want {
			t.Errorf("engine %s: got %q, want %q", engine, body, want)
		}
	}
}

func TestServerErrors(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	// Missing query.
	resp, err := http.Post(ts.URL+"/query", "application/xml", strings.NewReader("<a/>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query: status %d, want 400", resp.StatusCode)
	}

	// Malformed query.
	resp, body := postQuery(t, ts.URL, "for $x in", "<a/>", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed query: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	// Unknown engine parameter.
	resp, body = postQuery(t, ts.URL, testQuery, "<bib/>", "engine=warp")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown engine: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	// Malformed input document: nothing streamed yet (the first token
	// already fails), so a clean error status is expected.
	resp, body = postQuery(t, ts.URL, testQuery, "<bib><book>", "")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("malformed input: status %d, want 422 (%s)", resp.StatusCode, body)
	}

	// GET on /query.
	gresp, err := http.Get(ts.URL + "/query?query=x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", gresp.StatusCode)
	}
}

// TestServerSmallBodyBuffer pins the pooled small-body read: requests of
// different sizes back to back on one server each see exactly their own
// body (a shorter body is not followed by the tail of a longer one the
// buffer held before), and a body that ends before its Content-Length
// is a 400, not a run over a partly stale buffer.
func TestServerSmallBodyBuffer(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	for i, books := range []int{300, 2, 40, 1, 300} {
		doc := testDoc(i, books)
		resp, body := postQuery(t, ts.URL, testQuery, doc, "")
		if resp.StatusCode != http.StatusOK || resp.Trailer.Get("X-Gcx-Error") != "" {
			t.Fatalf("%d books: status %d, error trailer %q", books, resp.StatusCode, resp.Trailer.Get("X-Gcx-Error"))
		}
		if want := expectedOutput(t, testQuery, doc); body != want {
			t.Errorf("%d books after a different body: got %q, want %q", books, body, want)
		}
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	doc := testDoc(9, 2)
	fmt.Fprintf(conn, "POST /query?query=%s HTTP/1.1\r\nHost: gcxd\r\nContent-Length: %d\r\n\r\n%s",
		url.QueryEscape(testQuery), len(doc)+10, doc)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short body: status %d (%s), want 400", resp.StatusCode, msg)
	}
}

// TestServerShardedRequests drives the shards=N parameter end to end:
// identical output, the X-Gcx-Shards trailer, per-worker counters in
// /stats, and the fallback accounting for non-partitionable queries.
func TestServerShardedRequests(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	doc := testDoc(1, 200)
	want := expectedOutput(t, testQuery, doc)

	resp, body := postQuery(t, ts.URL, testQuery, doc, "shards=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded request: status %d: %s", resp.StatusCode, body)
	}
	if body != want {
		t.Fatalf("sharded output differs from sequential")
	}
	if got := resp.Trailer.Get("X-Gcx-Shards"); got != "4" {
		t.Fatalf("X-Gcx-Shards = %q, want 4", got)
	}

	// A join is not partitionable: the request succeeds sequentially and
	// counts as a fallback.
	joinQuery := `<out>{
	  for $b in /bib/book return
	    for $c in /bib/book return
	      if ($b/price = $c/price) then $b/title else ()
	}</out>`
	resp, body = postQuery(t, ts.URL, joinQuery, testDoc(2, 5), "shards=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join request: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Trailer.Get("X-Gcx-Shards"); got != "1" {
		t.Fatalf("join X-Gcx-Shards = %q, want 1 (fallback)", got)
	}

	// Out-of-range shard counts are rejected.
	resp, body = postQuery(t, ts.URL, testQuery, "<bib/>", "shards=0")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shards=0: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	resp, body = postQuery(t, ts.URL, testQuery, "<bib/>", "shards=1000")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shards=1000: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	var stats struct {
		ShardedRequests int64 `json:"sharded_requests"`
		ShardWorkers    int64 `json:"shard_workers"`
		ShardChunks     int64 `json:"shard_chunks"`
		ShardFallbacks  int64 `json:"shard_fallbacks"`
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.ShardedRequests != 2 {
		t.Errorf("sharded_requests = %d, want 2", stats.ShardedRequests)
	}
	if stats.ShardWorkers != 5 { // 4 for the sharded run + 1 for the fallback
		t.Errorf("shard_workers = %d, want 5", stats.ShardWorkers)
	}
	if stats.ShardChunks < 1 {
		t.Errorf("shard_chunks = %d, want >= 1", stats.ShardChunks)
	}
	if stats.ShardFallbacks != 1 {
		t.Errorf("shard_fallbacks = %d, want 1", stats.ShardFallbacks)
	}
}

// TestServerNDJSONRequests drives the format=ndjson parameter end to
// end: JSON output with the NDJSON content type, sharded NDJSON
// requests byte-identical to sequential ones, the json_requests
// counter, and rejection of unknown format names.
func TestServerNDJSONRequests(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	nd, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 64 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	query := xmark.NDJSONQueries["J1"].Text
	q, err := gcx.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := q.ExecuteString(nd, gcx.Options{Format: gcx.FormatNDJSON})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postQuery(t, ts.URL, query, nd, "format=ndjson")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson request: status %d: %s", resp.StatusCode, body)
	}
	if body != want {
		t.Fatalf("ndjson output differs from library run:\n got %.200q\nwant %.200q", body, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	// Sharded NDJSON: byte-identical, with the shard trailer.
	resp, body = postQuery(t, ts.URL, query, nd, "format=ndjson&shards=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded ndjson request: status %d: %s", resp.StatusCode, body)
	}
	if body != want {
		t.Fatal("sharded ndjson output differs from sequential")
	}
	if got := resp.Trailer.Get("X-Gcx-Shards"); got != "4" {
		t.Fatalf("X-Gcx-Shards = %q, want 4", got)
	}

	// Unknown format names are a client error.
	resp, body = postQuery(t, ts.URL, query, nd, "format=yaml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=yaml: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	var stats struct {
		JSONRequests int64 `json:"json_requests"`
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.JSONRequests != 2 {
		t.Errorf("json_requests = %d, want 2", stats.JSONRequests)
	}
}

func TestServerHealthz(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 1}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// TestServerBudget covers the node-budget path end to end: admission
// control for statically-unbounded queries, graceful runtime trips, and
// the budget counters plus peak watermarks in /stats.
func TestServerBudget(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	doc := testDoc(0, 40)

	// A generous budget runs normally and reports its watermark.
	resp, body := postQuery(t, ts.URL, testQuery, doc, "max_nodes=100000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generous budget: status %d: %s", resp.StatusCode, body)
	}
	if resp.Trailer.Get("X-Gcx-Peak-Nodes") == "" || resp.Trailer.Get("X-Gcx-Peak-Bytes") == "" {
		t.Errorf("missing peak trailers: %+v", resp.Trailer)
	}

	// A tiny budget trips at runtime. Depending on whether output hit
	// the wire first, that surfaces as a 413 status or as an X-Gcx-Error
	// trailer — either way the run aborts instead of buffering on.
	resp, body = postQuery(t, ts.URL, testQuery, doc, "max_nodes=2")
	tripped := resp.StatusCode == http.StatusRequestEntityTooLarge ||
		strings.Contains(resp.Trailer.Get("X-Gcx-Error"), "budget")
	if !tripped {
		t.Fatalf("tiny budget did not trip: status %d, trailer %q, body %q",
			resp.StatusCode, resp.Trailer.Get("X-Gcx-Error"), body)
	}

	// A statically-unbounded query under a budget is rejected up front
	// with the analyzer's reason.
	join := `<out>{ for $b in /bib/book return for $a in /bib/book return $a/title }</out>`
	resp, body = postQuery(t, ts.URL, join, doc, "max_nodes=100000")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("unbounded+budget: status %d, want 413: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "statically unbounded") || !strings.Contains(body, "join") {
		t.Errorf("rejection does not carry the analyzer's reason: %s", body)
	}
	// Without a budget the same join is admitted.
	if resp, body = postQuery(t, ts.URL, join, doc, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("join without budget: status %d: %s", resp.StatusCode, body)
	}

	var stats struct {
		PeakNodes        int64 `json:"peak_buffered_nodes"`
		PeakBytes        int64 `json:"peak_buffered_bytes"`
		BudgetRejections int64 `json:"budget_rejections"`
		BudgetTrips      int64 `json:"budget_trips"`
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.BudgetRejections != 1 {
		t.Errorf("budget_rejections = %d, want 1", stats.BudgetRejections)
	}
	if stats.BudgetTrips != 1 {
		t.Errorf("budget_trips = %d, want 1", stats.BudgetTrips)
	}
	if stats.PeakNodes <= 0 || stats.PeakBytes <= 0 {
		t.Errorf("lifetime watermarks not recorded: nodes=%d bytes=%d", stats.PeakNodes, stats.PeakBytes)
	}

	// Bad max_nodes values are usage errors.
	if resp, _ := postQuery(t, ts.URL, testQuery, doc, "max_nodes=0"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("max_nodes=0: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts.URL, testQuery, doc, "max_nodes=soon"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("max_nodes=soon: status %d, want 400", resp.StatusCode)
	}
}

// TestServerBudgetPartialStats: a run that trips the budget still
// produced a record, so every statistic it carries — not just the
// watermarks and join counters — is folded into the registry and
// reported in the trailers before the error is.
func TestServerBudgetPartialStats(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	// Twenty dead subtrees the engine skips, then the books that breach.
	doc := "<bib>" + strings.Repeat("<misc><x>1</x></misc>", 20) + testDoc(0, 10)[len("<bib>"):]
	resp, body := postQuery(t, ts.URL, testQuery, doc, "max_nodes=2")
	if resp.StatusCode != http.StatusRequestEntityTooLarge && !strings.Contains(resp.Trailer.Get("X-Gcx-Error"), "budget") {
		t.Fatalf("tiny budget did not trip: status %d, trailers %+v, body %q", resp.StatusCode, resp.Trailer, body)
	}
	if resp.Trailer.Get("X-Gcx-Peak-Nodes") == "" || resp.Trailer.Get("X-Gcx-Bytes-Skipped") == "" {
		t.Errorf("tripped run reported no partial statistics: %+v", resp.Trailer)
	}

	var stats map[string]int64
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["budget_trips"] != 1 || stats["subtrees_skipped"] < 20 || stats["bytes_skipped"] == 0 || stats["peak_buffered_nodes"] == 0 {
		t.Errorf("partial statistics not folded: %+v", stats)
	}
}

// TestServerJoinBudget: a detected two-variable join is exempt from the
// unbounded-query admission rejection — the join operator enforces the
// budget on its build side — and a breach surfaces as a budget trip
// with partial join statistics, not as a generic execution error.
func TestServerJoinBudget(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	const joinQuery = `<out>{ for $b in /bib/book return
	  for $a in /bib/article return
	    if ($a/ref = $b/title) then $a/au else () }</out>`
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "<book><title>t%d</title></book>", i)
	}
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "<article><ref>t%d</ref><au>a%d</au></article>", i, i)
	}
	sb.WriteString("</bib>")
	doc := sb.String()

	// Admitted under a generous budget despite the unbounded class.
	resp, body := postQuery(t, ts.URL, joinQuery, doc, "max_nodes=100000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join under generous budget: status %d, want 200: %s", resp.StatusCode, body)
	}
	if want := expectedOutput(t, joinQuery, doc); body != want {
		t.Fatalf("join output mismatch:\n got %q\nwant %q", body, want)
	}

	// A tiny budget trips on the build side: 413 or error trailer, and
	// budget_trips counts it.
	resp, body = postQuery(t, ts.URL, joinQuery, doc, "max_nodes=3")
	tripped := resp.StatusCode == http.StatusRequestEntityTooLarge ||
		strings.Contains(resp.Trailer.Get("X-Gcx-Error"), "budget")
	if !tripped {
		t.Fatalf("join budget did not trip: status %d, trailer %q, body %q",
			resp.StatusCode, resp.Trailer.Get("X-Gcx-Error"), body)
	}

	var stats struct {
		BudgetRejections int64 `json:"budget_rejections"`
		BudgetTrips      int64 `json:"budget_trips"`
		JoinProbe        int64 `json:"join_probe_tuples"`
		JoinBuild        int64 `json:"join_build_tuples"`
		JoinMatches      int64 `json:"join_matches"`
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.BudgetRejections != 0 {
		t.Errorf("join was rejected at admission: budget_rejections = %d", stats.BudgetRejections)
	}
	if stats.BudgetTrips != 1 {
		t.Errorf("budget_trips = %d, want 1", stats.BudgetTrips)
	}
	if stats.JoinProbe == 0 || stats.JoinBuild == 0 || stats.JoinMatches == 0 {
		t.Errorf("join counters not recorded: probe=%d build=%d matches=%d",
			stats.JoinProbe, stats.JoinBuild, stats.JoinMatches)
	}
}

// TestServerExplain drives the /explain endpoint: a structured report
// for good queries, 400 for bad ones, no execution either way.
func TestServerExplain(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/explain?query=" + url.QueryEscape(xmark.Queries["Q1"].Text))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var rep gcx.ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Streamability != "bounded-constant" || rep.StaticBound == nil || len(rep.Roles) == 0 {
		t.Errorf("incomplete report: %+v", rep)
	}

	bad, err := http.Get(ts.URL + "/explain?query=" + url.QueryEscape("for $x in"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("compile error: status %d, want 400", bad.StatusCode)
	}
	missing, err := http.Get(ts.URL + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query: status %d, want 400", missing.StatusCode)
	}
}
