// Command gcxd is the GCX query server: a concurrent HTTP front end
// over the streaming engine (implemented in gcx/internal/gcxd, so tests
// and the gcxperf serving workloads can run it in-process). Each request carries
// an XQuery (header or URL parameter) plus the XML input as the request
// body; the serialized result streams back as the response body while
// the input is still being read, so neither side is ever buffered
// whole. Compiled queries are shared across requests through a
// thread-safe LRU cache, and every execution runs under the request's
// context — a disconnecting client cancels its run within one input
// token.
//
// Usage:
//
//	gcxd [-addr :8090] [-cache 256] [-max-inflight 0] [-pprof-addr ""] [-log text]
//
//	curl -X POST --data-binary @bib.xml \
//	     'http://localhost:8090/query?query=<out>{ for $b in /bib/book return $b/title }</out>'
//
// Endpoints:
//
//	POST /query   evaluate a query (see below)
//	GET  /explain compile a query and return its analyzer report as JSON
//	GET  /healthz liveness probe
//	GET  /stats   JSON counters: requests, cache hits/misses, bytes out,
//	              buffer watermarks, budget rejections/trips
//	GET  /metrics the same registry in Prometheus text exposition format,
//	              plus request latency/size histograms (DESIGN.md §11)
//
// POST /query reads the query text from the X-GCX-Query header or the
// "query" URL parameter, and the input document from the request body.
// Optional URL parameters: engine=gcx|projection|dom (default gcx; the
// aliases of gcx.ParseEngine work too), shards=N (1..gcx.MaxShards)
// to run a partitionable query over N parallel engine instances (non-partitionable queries fall back
// to one, see DESIGN.md §6), format=auto|xml|json|ndjson (default auto)
// to select the input syntax — JSON/NDJSON bodies stream back as JSON
// lines (DESIGN.md §8), and format=ndjson additionally enables
// newline-boundary sharding for eligible queries. max_nodes=N sets the
// per-worker buffer node budget (DESIGN.md §9): statically-unbounded
// queries are rejected up front with 413 and the analyzer's reason, and
// a runtime overrun aborts the run with 413 (or the X-Gcx-Error trailer
// once streaming has begun) instead of buffering without limit.
// trace=1 enables per-phase execution timing; the phase breakdown
// arrives as JSON in the X-Gcx-Trace trailer. Execution statistics
// arrive as HTTP trailers (X-Gcx-Tokens, X-Gcx-Peak-Nodes,
// X-Gcx-Peak-Bytes, X-Gcx-Bytes-Skipped, X-Gcx-Shards), for every run
// that produced statistics — including one that tripped its budget; an
// error after streaming has begun is reported in the X-Gcx-Error
// trailer, since the status line is already on the wire.
//
// -max-inflight bounds concurrently executing queries; above it the
// server sheds load with 503 + Retry-After instead of queueing without
// bound. -pprof-addr starts a second, admin-only listener serving
// net/http/pprof (kept off the query port so profiling endpoints are
// never exposed to query clients). -log selects text or json slog
// output; every request logs one structured line.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight queries for up to -drain before exiting.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gcx/internal/gcxd"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	cacheSize := flag.Int("cache", 256, "compiled-query cache capacity")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline: how long in-flight queries may finish after SIGINT/SIGTERM")
	maxInflight := flag.Int("max-inflight", 0, "maximum concurrently executing queries; above it requests get 503 + Retry-After (0 = unlimited)")
	pprofAddr := flag.String("pprof-addr", "", "admin listen address for net/http/pprof (empty = disabled; keep it private)")
	logFormat := flag.String("log", "text", "request log format: text or json")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		slog.Error("unknown -log format (want text or json)", "format", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	srv := gcxd.NewServer(gcxd.Config{
		CacheSize:   *cacheSize,
		MaxInflight: *maxInflight,
		Logger:      logger,
	})
	// No ReadTimeout/WriteTimeout: query streams are legitimately
	// long-lived. Header and idle timeouts keep stalled connections
	// from pinning handler goroutines forever.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// The pprof listener is its own server on its own port: profiling
	// endpoints never share an address with query traffic, so a firewall
	// rule on one port covers them all.
	if *pprofAddr != "" {
		admin := http.NewServeMux()
		admin.HandleFunc("/debug/pprof/", pprof.Index)
		admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
		admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		as := &http.Server{Addr: *pprofAddr, Handler: admin, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := as.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	// Graceful drain: the first SIGINT/SIGTERM stops accepting new
	// connections and lets in-flight queries run to completion within
	// the -drain deadline; streams still open at the deadline are cut.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("gcxd listening", "addr", *addr, "max_inflight", *maxInflight)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop() // a second signal kills the process immediately
		logger.Info("gcxd draining", "deadline", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			logger.Warn("drain incomplete", "err", err)
			hs.Close()
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
		logger.Info("gcxd stopped")
	}
}
