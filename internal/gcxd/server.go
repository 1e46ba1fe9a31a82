// Package gcxd implements the GCX query server behind cmd/gcxd: a
// concurrent HTTP front end over the streaming engine, importable so
// tests, BenchmarkServe and gcxperf can run an in-process instance.
//
// Observability (DESIGN.md §11): every serving counter lives in one
// obs.Registry — GET /metrics renders the Prometheus text exposition,
// GET /stats the legacy JSON view over a single atomic snapshot of the
// same values, so the two cannot drift and related counters cannot tear
// mid-read. Request logging goes through log/slog with one line per
// query carrying the query hash, engine, format, shards, bytes and
// outcome.
package gcxd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"gcx"
	"gcx/internal/obs"
	"gcx/internal/stats"
)

// Config tunes a Server.
type Config struct {
	// CacheSize is the compiled-query LRU capacity (≤ 0 uses 256).
	CacheSize int
	// MaxInflight bounds concurrently executing /query requests; above
	// it the server sheds load with 503 + Retry-After instead of
	// queueing without bound. 0 means unlimited.
	MaxInflight int
	// Logger receives one structured line per request; nil discards.
	Logger *slog.Logger
}

// DefaultBytesBodyLimit is the small-body threshold (1 MiB): a body
// whose Content-Length is at most this is read whole into a pooled
// buffer and scanned in place on the zero-copy []byte engine path
// (DESIGN.md §12); a longer body, or one without a Content-Length
// (chunked uploads), streams through the refill cursor. Since the
// reader backing stopped allocating per token that saves little — Q6
// on 256 KiB: 252 allocations against 256 streamed, p10 ~6 % lower
// (EXPERIMENTS.md, "Does the bytes limit still earn its knob").
const DefaultBytesBodyLimit = 1 << 20

// Server is the gcxd HTTP handler; it is safe for concurrent use.
type Server struct {
	mux   *http.ServeMux
	cache *gcx.QueryCache
	log   *slog.Logger
	reg   *obs.Registry

	// inflight is the admission semaphore (nil = unlimited): a slot is
	// held for the whole execution, so MaxInflight bounds engine
	// concurrency, not just accept concurrency.
	inflight chan struct{}

	requests *obs.Counter
	errors   *obs.Counter
	bytesOut *obs.Counter

	// Sharded-execution counters: requests that asked for shards > 1,
	// worker instances launched and chunks processed on their behalf,
	// and requests that fell back to the sequential engine because the
	// query was not partitionable.
	shardedRequests *obs.Counter
	shardWorkers    *obs.Counter
	shardChunks     *obs.Counter
	shardFallbacks  *obs.Counter

	// runFolds[i] folds field stats.Fields[i] of a finished run into its
	// registry metric — a total for counters (bytes and subtrees
	// skipped, DESIGN.md §7; the join's probe, build and match counts,
	// §10), the lifetime maximum for the buffer watermarks; nil for the
	// fields the server does not export.
	runFolds []func(int64)

	// jsonRequests counts requests that selected the JSON/NDJSON front
	// end via ?format= (DESIGN.md §8).
	jsonRequests *obs.Counter

	// Budget accounting (DESIGN.md §9): requests rejected at admission
	// because a ?max_nodes= budget met a statically-unbounded query, and
	// runs aborted because the buffer hit the budget at runtime.
	budgetRejections *obs.Counter
	budgetTrips      *obs.Counter

	// Load-shedding accounting: currently executing requests and
	// requests rejected because MaxInflight was saturated.
	inflightGauge      *obs.Gauge
	inflightRejections *obs.Counter

	// Per-request latency and response size, labeled by engine, format
	// and outcome (ok | error | budget).
	latency  *obs.HistogramVec
	respSize *obs.HistogramVec
}

// NewServer builds a server with its metrics registry.
func NewServer(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	logger := cfg.Logger
	if logger == nil {
		// Discard via a disabled-level text handler (slog.DiscardHandler
		// needs go ≥ 1.24; the module targets 1.22).
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	r := obs.New()
	s := &Server{
		mux:   http.NewServeMux(),
		cache: gcx.NewQueryCache(cfg.CacheSize),
		log:   logger,
		reg:   r,

		requests: r.Counter("gcx_requests_total", "HTTP requests received, across all endpoints.").Key("requests"),
		errors:   r.Counter("gcx_request_errors_total", "Requests that ended in an error response or error trailer.").Key("errors"),
		bytesOut: r.Counter("gcx_response_bytes_total", "Query result bytes written to clients.").Key("bytes_out"),

		shardedRequests: r.Counter("gcx_sharded_requests_total", "Requests that asked for shards > 1.").Key("sharded_requests"),
		shardWorkers:    r.Counter("gcx_shard_workers_total", "Parallel engine instances launched for sharded requests.").Key("shard_workers"),
		shardChunks:     r.Counter("gcx_shard_chunks_total", "Input chunks processed by sharded requests.").Key("shard_chunks"),
		shardFallbacks:  r.Counter("gcx_shard_fallbacks_total", "Sharded requests that fell back to sequential execution.").Key("shard_fallbacks"),

		runFolds: make([]func(int64), len(stats.Fields)),

		jsonRequests: r.Counter("gcx_json_requests_total", "Requests using the JSON/NDJSON front end.").Key("json_requests"),

		budgetRejections: r.Counter("gcx_budget_rejections_total", "Budgeted requests rejected at admission (statically unbounded query).").Key("budget_rejections"),
		budgetTrips:      r.Counter("gcx_budget_trips_total", "Runs aborted because the buffer hit the node budget.").Key("budget_trips"),

		inflightGauge:      r.Gauge("gcx_inflight_requests", "Query requests currently executing.").Key("inflight_requests"),
		inflightRejections: r.Counter("gcx_inflight_rejections_total", "Requests shed with 503 because -max-inflight was saturated.").Key("inflight_rejections"),

		latency:  r.HistogramVec("gcx_request_duration_seconds", "Query latency by engine, format, outcome and input path.", obs.LatencyBuckets, "engine", "format", "outcome", "input_path"),
		respSize: r.HistogramVec("gcx_response_size_bytes", "Query response size by engine, format, outcome and input path.", obs.SizeBuckets, "engine", "format", "outcome", "input_path"),
	}
	for i, f := range stats.Fields {
		switch {
		case f.Metric == "":
		case f.Watermark:
			s.runFolds[i] = r.Gauge(f.Metric, f.Help).Key(f.Key).Max
		default:
			s.runFolds[i] = r.Counter(f.Metric, f.Help).Key(f.Key).Add
		}
	}
	// Cache metrics read the cache's own counters at collection time.
	r.GaugeFunc("gcx_cache_entries", "Compiled queries in the LRU cache.", func() int64 {
		return int64(s.cache.Len())
	}).Key("cache_len")
	r.CounterFunc("gcx_cache_hits_total", "Compiled-query cache hits.", func() int64 {
		hits, _ := s.cache.Stats()
		return hits
	}).Key("cache_hits")
	r.CounterFunc("gcx_cache_misses_total", "Compiled-query cache misses (compiles).", func() int64 {
		_, misses := s.cache.Stats()
		return misses
	}).Key("cache_misses")

	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Registry exposes the server's metrics registry (tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// queryHash is the stable short id request logs carry instead of the
// query text (queries can be kilobytes and carry user data).
func queryHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:4])
}

// trailerNames declares every trailer a /query response may carry: the
// error, one per statistics field that has one, and the trace.
var trailerNames = func() string {
	names := []string{"X-Gcx-Error"}
	for _, f := range stats.Fields {
		if f.Trailer != "" {
			names = append(names, f.Trailer)
		}
	}
	return strings.Join(append(names, "X-Gcx-Trace"), ", ")
}()

// observe folds one run's statistics into the registry and reports them
// in the response trailers, for every run that produced a record: a
// budget-tripped run contributes its partial counts, since how far it
// got before the breach is exactly what an operator sizing max_nodes
// wants to see.
func (s *Server) observe(w http.ResponseWriter, res *gcx.Result) {
	if res == nil {
		return
	}
	for i := range stats.Fields {
		f := &stats.Fields[i]
		v := f.Get(res)
		if fold := s.runFolds[i]; fold != nil {
			fold(v)
		}
		if f.Trailer != "" {
			w.Header().Set(f.Trailer, strconv.FormatInt(v, 10))
		}
	}
}

// optionsFromRequest maps the request's URL parameters, parsed once by
// the caller, to execution options.
func optionsFromRequest(params url.Values) (gcx.Options, error) {
	var opts gcx.Options
	var err error
	if opts.Engine, err = gcx.ParseEngine(params.Get("engine")); err != nil {
		return opts, err
	}
	if sh := params.Get("shards"); sh != "" {
		n, err := strconv.Atoi(sh)
		if err != nil || n < 1 || n > gcx.MaxShards {
			return opts, fmt.Errorf("invalid shards %q (want 1..%d)", sh, gcx.MaxShards)
		}
		opts.Shards = n
	}
	if opts.Format, err = gcx.ParseFormat(params.Get("format")); err != nil {
		return opts, err
	}
	if mn := params.Get("max_nodes"); mn != "" {
		n, err := strconv.ParseInt(mn, 10, 64)
		if err != nil || n < 1 {
			return opts, fmt.Errorf("invalid max_nodes %q (want a positive node count)", mn)
		}
		opts.MaxBufferedNodes = n
	}
	if tr := params.Get("trace"); tr == "1" || tr == "true" {
		opts.EnableTrace = true
	}
	return opts, nil
}

// contentType maps the request's input format to the response body's
// media type: XML results for XML input, JSON lines otherwise. Auto is
// reported as XML — the historical default — since the body's real
// format is only known after sniffing begins streaming.
func contentType(f gcx.Format) string {
	switch f {
	case gcx.FormatJSON, gcx.FormatNDJSON:
		return "application/x-ndjson"
	default:
		return "application/xml"
	}
}

// bodyPool recycles the buffers small request bodies are read into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// countingWriter tracks whether (and how much of) the response body has
// hit the wire, which decides between a clean error status and an error
// trailer on a stream that already started.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST with the XML document as request body")
		return
	}
	params := r.URL.Query()
	src := r.Header.Get("X-GCX-Query")
	if src == "" {
		src = params.Get("query")
	}
	if src == "" {
		s.fail(w, http.StatusBadRequest, "missing query: pass the X-GCX-Query header or the ?query= parameter")
		return
	}
	opts, err := optionsFromRequest(params)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	// Load shedding: a saturated server answers 503 immediately — the
	// client's cue to back off — instead of queueing requests whose
	// engines would thrash each other.
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.inflightRejections.Inc()
			s.errors.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at max in-flight queries, retry later", http.StatusServiceUnavailable)
			s.log.Warn("query shed", "query", queryHash(src), "status", http.StatusServiceUnavailable)
			return
		}
	}
	s.inflightGauge.Add(1)
	defer s.inflightGauge.Add(-1)

	// outcome/status drive the latency and size histogram labels and the
	// request log line written on every exit path below.
	outcome, status := "ok", http.StatusOK
	inputPath := "stream"
	var res *gcx.Result
	cw := &countingWriter{w: w}
	defer func() {
		d := time.Since(start)
		eng, format := opts.Engine.String(), opts.Format.String()
		s.latency.With(eng, format, outcome, inputPath).Observe(d.Seconds())
		s.respSize.With(eng, format, outcome, inputPath).Observe(float64(cw.n))
		attrs := []any{
			"query", queryHash(src), "engine", eng, "format", format,
			"shards", opts.Shards, "input_path", inputPath, "bytes_out", cw.n,
			"dur_ms", d.Milliseconds(), "outcome", outcome, "status", status,
		}
		if res != nil {
			attrs = append(attrs, "tokens", res.TokensProcessed, "peak_nodes", res.PeakBufferedNodes)
		}
		if outcome == "ok" {
			s.log.Info("query", attrs...)
		} else {
			s.log.Warn("query", attrs...)
		}
	}()

	q, err := s.cache.Get(src)
	if err != nil {
		outcome, status = "error", http.StatusBadRequest
		s.fail(w, status, "compile error: "+err.Error())
		return
	}
	if opts.MaxBufferedNodes > 0 {
		// Admission control: a budget-carrying request with a query the
		// analyzer proved unbounded can only end in a mid-stream abort,
		// so reject it up front with the analyzer's reason. Detected
		// joins are exempt: they are classified unbounded (the build side
		// is buffered to end of input), but the join operator enforces
		// the budget on the build table and degrades gracefully with
		// partial statistics, surfacing as a budget_trip below — the
		// budget is exactly the knob that makes such a query admissible.
		if rep := q.Report(); rep.Streamability == "unbounded" && rep.Join == nil {
			s.budgetRejections.Inc()
			outcome, status = "budget", http.StatusRequestEntityTooLarge
			s.fail(w, status,
				"query is statically unbounded and cannot run under max_nodes: "+rep.StreamabilityReason)
			return
		}
	}

	w.Header().Set("Content-Type", contentType(opts.Format))
	w.Header().Set("Trailer", trailerNames)
	if n := r.ContentLength; n >= 0 && n <= DefaultBytesBodyLimit {
		// Small body with a known length: read it into one exactly
		// sized, pooled buffer and take the zero-copy engine path
		// (DESIGN.md §12). The run borrows from the buffer, so it goes
		// back to the pool only once the run has returned.
		buf := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(buf)
		if int64(cap(*buf)) < n {
			*buf = make([]byte, n)
		}
		body := (*buf)[:n]
		if _, rerr := io.ReadFull(r.Body, body); rerr != nil {
			outcome, status = "error", http.StatusBadRequest
			s.fail(w, status, "reading request body: "+rerr.Error())
			return
		}
		inputPath = "bytes"
		res, err = q.ExecuteBytesContext(r.Context(), body, cw, opts)
	} else {
		res, err = q.ExecuteContext(r.Context(), r.Body, cw, opts)
	}
	s.bytesOut.Add(cw.n)
	s.observe(w, res)
	if err != nil {
		if errors.Is(err, gcx.ErrBufferBudget) {
			s.budgetTrips.Inc()
			outcome = "budget"
			if cw.n == 0 {
				status = http.StatusRequestEntityTooLarge
				s.fail(w, status, "buffer budget exceeded: "+err.Error())
				return
			}
		} else if cw.n == 0 {
			// Nothing streamed yet: the status line is still ours.
			outcome, status = "error", http.StatusUnprocessableEntity
			s.fail(w, status, "execution error: "+err.Error())
			return
		} else {
			outcome = "error"
		}
		s.errors.Inc()
		w.Header().Set("X-Gcx-Error", err.Error())
		return
	}
	if opts.Shards > 1 {
		s.shardedRequests.Inc()
		s.shardWorkers.Add(int64(res.ShardsUsed))
		s.shardChunks.Add(int64(res.Chunks))
		if res.ShardsUsed == 1 {
			s.shardFallbacks.Inc()
		}
	}
	if opts.Format == gcx.FormatJSON || opts.Format == gcx.FormatNDJSON {
		s.jsonRequests.Inc()
	}
	if opts.EnableTrace && res.Trace != nil {
		if raw, err := json.Marshal(res.Trace); err == nil {
			w.Header().Set("X-Gcx-Trace", string(raw))
		}
	}
}

// handleExplain compiles the query and returns the analyzer's
// structured report without executing it — the server-side form of
// `gcx -explain-json`.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	src := r.Header.Get("X-GCX-Query")
	if src == "" {
		src = r.URL.Query().Get("query")
	}
	if src == "" {
		s.fail(w, http.StatusBadRequest, "missing query: pass the X-GCX-Query header or the ?query= parameter")
		return
	}
	q, err := s.cache.Get(src)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "compile error: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(q.Report())
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.errors.Inc()
	http.Error(w, msg, code)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleStats serves the legacy JSON counter view: one atomic snapshot
// of the registry, so related counters cannot tear against each other.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.reg.Snapshot())
}

// handleMetrics serves the Prometheus text exposition of the same
// registry /stats snapshots.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.reg.WritePrometheus(w)
}
