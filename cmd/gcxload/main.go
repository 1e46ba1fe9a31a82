// Command gcxload is the gcxd SLO harness (DESIGN.md §11): it drives a
// server with a catalog of XMark and NDJSON query cells and reports
// client-observed latency percentiles, throughput and error rate per
// (query, shards) cell — the numbers an operator would put an SLO on,
// measured from the outside rather than derived from server metrics.
//
//	gcxload                         # in-process server, default catalog
//	gcxload -url http://host:8090   # drive a running gcxd
//	gcxload -c 8 -duration 10s      # closed loop: 8 workers back to back
//	gcxload -rate 200               # open loop: 200 requests/s arrivals
//	gcxload -json BENCH_gcxd.json   # machine-readable per-cell results
//
// Closed loop (-c N) keeps N workers issuing requests back to back and
// measures saturated-server behavior; open loop (-rate R) fires
// arrivals on a fixed schedule regardless of completions, so queueing
// delay shows up in the latencies instead of being hidden by worker
// backpressure (the coordinated-omission trap). With -url empty the
// harness starts an in-process gcxd on a loopback port, so a laptop run
// needs no setup and CI needs no daemon.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcx/internal/gcxd"
	"gcx/internal/xmark"
)

// cellResult is one measured (query, shards) cell of BENCH_gcxd.json.
type cellResult struct {
	Query string `json:"query"`
	// Format is the input syntax: "" for XML cells, "ndjson" otherwise
	// (same convention as BENCH_gcx.json).
	Format    string `json:"format,omitempty"`
	Shards    int    `json:"shards"`
	SizeBytes int    `json:"size_bytes"`
	// InputPath is the path the server reported taking for this cell's
	// requests, read from its gcx_request_duration_seconds input_path
	// label: "bytes" (small body buffered once, zero-copy run), "stream"
	// (read through the refilling cursor), or "mixed".
	InputPath string `json:"input_path,omitempty"`
	// Concurrency and RateRPS echo the load shape: closed loop reports
	// workers and 0, open loop reports 0 and the arrival rate.
	Concurrency int     `json:"concurrency,omitempty"`
	RateRPS     float64 `json:"rate_rps,omitempty"`
	DurationS   float64 `json:"duration_s"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	ErrorRate   float64 `json:"error_rate"`
	// ThroughputRPS is completed-request throughput over the measurement
	// window.
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	BytesOut      int64   `json:"bytes_out"`
}

// benchFile is the BENCH_gcxd.json schema, mirroring BENCH_gcx.json.
type benchFile struct {
	Note    string       `json:"note"`
	Entries []cellResult `json:"entries"`
}

// defaultSize is the default generator target. The generators overshoot
// (a 1 MiB target yields 1 094 441 B of XML and 1 139 390 B of NDJSON),
// so the target sits far enough under gcxd.DefaultBytesBodyLimit for
// both default bodies to fit it and ride the zero-copy path.
const defaultSize = 896 << 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcxload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseURL     = fs.String("url", "", "gcxd base URL (empty: start an in-process server on a loopback port)")
		conc        = fs.Int("c", 4, "closed-loop worker count (ignored when -rate is set)")
		rate        = fs.Float64("rate", 0, "open-loop arrival rate in requests/s (0 = closed loop)")
		duration    = fs.Duration("duration", 5*time.Second, "measurement window per cell")
		warmup      = fs.Duration("warmup", 500*time.Millisecond, "per-cell warmup before measuring (fills caches, steadies the scheduler)")
		sizeBytes   = fs.Int("size", defaultSize, "generator target in bytes; bodies come out 4-10% larger, and gcxd streams one above its small-body limit (1 MiB) instead of running it zero-copy (reported as input_path)")
		seed        = fs.Int64("seed", 1, "XMark generator seed")
		queriesFlag = fs.String("queries", "Q1,Q6,Q13", "XMark queries to drive")
		ndjsonFlag  = fs.String("ndjson-queries", "J1", "NDJSON queries to drive (empty disables)")
		shardsFlag  = fs.String("shards", "1,4", "shard counts per cell, comma-separated")
		jsonPath    = fs.String("json", "", "write per-cell results to this JSON file (BENCH_gcxd.json)")
		maxInflight = fs.Int("max-inflight", 0, "in-process server -max-inflight (only without -url)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var shardCounts []int
	for _, s := range strings.Split(*shardsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "gcxload: malformed shard count %q\n", s)
			return 2
		}
		shardCounts = append(shardCounts, n)
	}

	target := *baseURL
	if target == "" {
		// In-process server: real HTTP over loopback (the client path —
		// transport, chunking, trailers — stays honest), zero setup.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(stderr, "gcxload:", err)
			return 1
		}
		hs := &http.Server{Handler: gcxd.NewServer(gcxd.Config{MaxInflight: *maxInflight})}
		go hs.Serve(ln)
		defer hs.Shutdown(context.Background())
		target = "http://" + ln.Addr().String()
		fmt.Fprintf(stdout, "in-process gcxd on %s\n", target)
	}

	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: int64(*sizeBytes), Seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, "gcxload:", err)
		return 1
	}
	nd := ""
	if *ndjsonFlag != "" {
		nd, _, err = xmark.GenerateNDJSONString(xmark.Config{TargetBytes: int64(*sizeBytes), Seed: *seed})
		if err != nil {
			fmt.Fprintln(stderr, "gcxload:", err)
			return 1
		}
	}

	// The cell catalog: every query × shard-count combination.
	type cell struct {
		id, query, format, body string
	}
	var cells []cell
	for _, qid := range strings.Split(*queriesFlag, ",") {
		qid = strings.TrimSpace(qid)
		if qid == "" {
			continue
		}
		entry, ok := xmark.Queries[qid]
		if !ok {
			fmt.Fprintf(stderr, "gcxload: unknown query %q\n", qid)
			return 2
		}
		cells = append(cells, cell{id: qid, query: entry.Text, body: doc})
	}
	if *ndjsonFlag != "" {
		for _, qid := range strings.Split(*ndjsonFlag, ",") {
			qid = strings.TrimSpace(qid)
			if qid == "" {
				continue
			}
			entry, ok := xmark.NDJSONQueries[qid]
			if !ok {
				fmt.Fprintf(stderr, "gcxload: unknown NDJSON query %q\n", qid)
				return 2
			}
			cells = append(cells, cell{id: qid, query: entry.Text, format: "ndjson", body: nd})
		}
	}

	out := benchFile{Note: "generated by cmd/gcxload; regenerate with `make loadtest`"}
	fmt.Fprintf(stdout, "%-6s %-7s %7s %10s %9s %9s %9s %7s\n",
		"query", "shards", "reqs", "thru(r/s)", "p50(ms)", "p95(ms)", "p99(ms)", "err%")
	for _, c := range cells {
		for _, sh := range shardCounts {
			u := target + "/query?query=" + url.QueryEscape(c.query) + "&shards=" + strconv.Itoa(sh)
			if c.format != "" {
				u += "&format=" + c.format
			}
			before := inputPaths(target)
			res := driveCell(u, c.body, *conc, *rate, *warmup, *duration)
			res.Query, res.Format, res.Shards, res.SizeBytes = c.id, c.format, sh, len(c.body)
			res.InputPath = before.since(inputPaths(target))
			if *rate > 0 {
				res.RateRPS = *rate
			} else {
				res.Concurrency = *conc
			}
			out.Entries = append(out.Entries, res)
			fmt.Fprintf(stdout, "%-6s %-7d %7d %10.1f %9.2f %9.2f %9.2f %6.2f%%\n",
				c.id, sh, res.Requests, res.ThroughputRPS, res.P50Ms, res.P95Ms, res.P99Ms, 100*res.ErrorRate)
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "gcxload:", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "gcxload:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d cells to %s\n", len(out.Entries), *jsonPath)
	}
	return 0
}

// driveCell loads one URL for the configured window and reduces the
// observed latencies.
func driveCell(u, body string, conc int, rate float64, warmup, duration time.Duration) cellResult {
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Warmup outside the measurement: compiles land in the server's
	// query cache, connections open, the runtime JITs its schedules.
	wdl := time.Now().Add(warmup)
	for time.Now().Before(wdl) {
		doRequest(client, u, body)
	}

	var (
		mu        sync.Mutex
		latencies []float64 // milliseconds
		errs      int64
		bytesOut  int64
	)
	observe := func(d time.Duration, n int64, err error) {
		mu.Lock()
		latencies = append(latencies, float64(d.Nanoseconds())/1e6)
		bytesOut += n
		if err != nil {
			errs++
		}
		mu.Unlock()
	}

	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	if rate > 0 {
		// Open loop: fixed arrival schedule, one goroutine per arrival —
		// a slow server makes latencies grow, not arrivals stop.
		interval := time.Duration(float64(time.Second) / rate)
		var inflight atomic.Int64
		for t := time.Now(); t.Before(deadline); t = time.Now() {
			wg.Add(1)
			inflight.Add(1)
			go func() {
				defer wg.Done()
				defer inflight.Add(-1)
				s := time.Now()
				n, err := doRequest(client, u, body)
				observe(time.Since(s), n, err)
			}()
			time.Sleep(interval)
			// Backstop against unbounded goroutine pileup if the server is
			// far slower than the schedule.
			for inflight.Load() > 4096 {
				time.Sleep(interval)
			}
		}
	} else {
		// Closed loop: conc workers back to back.
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					s := time.Now()
					n, err := doRequest(client, u, body)
					observe(time.Since(s), n, err)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Float64s(latencies)
	res := cellResult{
		DurationS: elapsed.Seconds(),
		Requests:  int64(len(latencies)),
		Errors:    errs,
		BytesOut:  bytesOut,
		P50Ms:     percentile(latencies, 50),
		P95Ms:     percentile(latencies, 95),
		P99Ms:     percentile(latencies, 99),
	}
	if res.Requests > 0 {
		res.ErrorRate = float64(errs) / float64(res.Requests)
		res.ThroughputRPS = float64(res.Requests) / elapsed.Seconds()
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.MeanMs = sum / float64(res.Requests)
	}
	return res
}

// doRequest runs one query and fully consumes the response (the
// latency of a streamed result is time-to-last-byte, not
// time-to-status-line). Non-2xx statuses and error trailers count as
// errors.
func doRequest(client *http.Client, u, body string) (int64, error) {
	resp, err := client.Post(u, "application/xml", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("status %d", resp.StatusCode)
	}
	if e := resp.Trailer.Get("X-Gcx-Error"); e != "" {
		return n, fmt.Errorf("trailer error: %s", e)
	}
	return n, nil
}

// pathCounts is the server's request count per input path, summed over
// the other labels of gcx_request_duration_seconds_count.
type pathCounts map[string]float64

// inputPaths scrapes the server's /metrics. A server without the
// endpoint yields no counts, and the cell no input_path.
func inputPaths(target string) pathCounts {
	counts := pathCounts{}
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		return counts
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body) // a short read only loses counts
	const label = `input_path="`
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "gcx_request_duration_seconds_count{") {
			continue
		}
		i, sp := strings.Index(line, label), strings.LastIndexByte(line, ' ')
		if i < 0 || sp < 0 {
			continue
		}
		path, _, _ := strings.Cut(line[i+len(label):], `"`)
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			counts[path] += v
		}
	}
	return counts
}

// since names the path of the requests counted between before and
// after: the one path that grew, "mixed" for several, "" for none.
func (before pathCounts) since(after pathCounts) string {
	name := ""
	for path, n := range after {
		if n > before[path] {
			if name != "" {
				return "mixed"
			}
			name = path
		}
	}
	return name
}

// percentile reads the p-th percentile from sorted data (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
