package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gcx"
	"gcx/internal/gcxd"
	"gcx/internal/xmark"
)

// config is what a pass needs besides the workload.
type config struct {
	Seed int64
	// Window is the timed window; the warm-up before it is a quarter as
	// long, on top.
	Window time.Duration
	// DocDiv divides every document size; 1 outside the package's tests.
	DocDiv int64
}

// instance is one workload set up and ready to run operations.
type instance struct {
	w    workload
	doc  []byte
	sha  string
	q    *gcx.Query
	opts gcx.Options

	// ref is the sequential ExecuteBytes run every operation's output is
	// checked against: by length in the timed window, by hash before and
	// after it.
	ref    *gcx.Result
	refSum [sha256.Size]byte

	// Serving workloads only.
	srv     *http.Server
	served  chan error
	gcxd    *gcxd.Server
	url     string
	clients []*http.Client
	// rec is set while a traced window runs; the handler span hangs off
	// it. Atomic because the server's goroutines read it.
	rec atomic.Pointer[recorder]
}

// generate makes the workload's document from the seed.
func generate(ndjson bool, size, seed int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(size + size/8))
	cfg := xmark.Config{TargetBytes: size, Seed: seed}
	var err error
	if ndjson {
		_, err = xmark.GenerateNDJSON(&buf, cfg)
	} else {
		_, err = xmark.Generate(&buf, cfg)
	}
	return buf.Bytes(), err
}

// setUp generates the input, compiles the query, checks the GCX engine
// against the DOM engine on a small document, computes the reference
// output and, for a serving workload, starts the server.
func setUp(w workload, cfg config) (*instance, error) {
	in := &instance{w: w}
	var err error
	if in.doc, err = generate(w.NDJSON, w.DocBytes/cfg.DocDiv, cfg.Seed); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	sum := sha256.Sum256(in.doc)
	in.sha = hex.EncodeToString(sum[:])
	if in.q, err = gcx.Compile(w.Query); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	in.opts = gcx.Options{Format: gcx.FormatXML, Shards: w.Shards}
	if w.NDJSON {
		in.opts.Format = gcx.FormatNDJSON
	}
	seq := in.opts
	seq.Shards = 0

	oracle, err := generate(w.NDJSON, oracleDoc/cfg.DocDiv, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("generate oracle document: %w", err)
	}
	var got, want bytes.Buffer
	if _, err = in.q.ExecuteBytes(oracle, &got, seq); err != nil {
		return nil, fmt.Errorf("oracle, gcx engine: %w", err)
	}
	dom := seq
	dom.Engine = gcx.EngineDOM
	if _, err = in.q.ExecuteBytes(oracle, &want, dom); err != nil {
		return nil, fmt.Errorf("oracle, dom engine: %w", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return nil, fmt.Errorf("oracle: gcx engine wrote %d bytes, dom engine %d, and they differ", got.Len(), want.Len())
	}

	h := sha256.New()
	if in.ref, err = in.q.ExecuteBytes(in.doc, h, seq); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	h.Sum(in.refSum[:0])

	if w.Serve {
		if err = in.serve(); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// serve starts gcxd on a loopback port and one keep-alive connection
// per client.
func (in *instance) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	in.gcxd = gcxd.NewServer(gcxd.Config{})
	in.srv = &http.Server{Handler: http.HandlerFunc(in.handle)}
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve(ln) }()
	in.url = "http://" + ln.Addr().String() + "/query?query=" + url.QueryEscape(in.w.Query)
	for range serveClients {
		in.clients = append(in.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return nil
}

const (
	serveClients = 2 // closed loop: each waits for its reply; two because the box has two cores
	spanHeader   = "X-Bench-Span"
)

// handle is the harness's own boundary around the server layer: on a
// traced request it records the handler span under the client's span.
func (in *instance) handle(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	rec := in.rec.Load()
	if rec == nil || parent == 0 {
		in.gcxd.ServeHTTP(w, r)
		return
	}
	id := rec.reserve(parent, "gcxd.handler")
	w.Header().Set(spanHeader, strconv.Itoa(id))
	start := time.Now()
	in.gcxd.ServeHTTP(w, r)
	rec.finish(id, start, time.Now())
}

// close stops the server and waits until it has ended.
func (in *instance) close() error {
	if in.srv == nil {
		return nil
	}
	for _, c := range in.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	in.srv = nil
	return err
}

// opResult is what one operation reports besides its output.
type opResult struct {
	peak        int64
	res         *gcx.Result      // library operations
	phases      []gcx.TracePhase // traced operations
	handlerSpan int              // traced serving operations
}

// do runs one operation of the workload, writing the result to out.
// span, when non-zero, is the traced operation's root span.
func (in *instance) do(client int, out io.Writer, span int) (opResult, error) {
	if !in.w.Serve {
		opts := in.opts
		opts.EnableTrace = span != 0
		res, err := in.q.ExecuteBytes(in.doc, out, opts)
		if err != nil {
			return opResult{}, err
		}
		return opResult{peak: res.PeakBufferedNodes, res: res, phases: res.Trace}, nil
	}
	u := in.url
	if span != 0 {
		u += "&trace=1"
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(in.doc))
	if err != nil {
		return opResult{}, err
	}
	req.Header.Set("Content-Type", "application/xml")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := in.clients[client].Do(req)
	if err != nil {
		return opResult{}, err
	}
	_, err = io.Copy(out, resp.Body)
	resp.Body.Close()
	if err != nil {
		return opResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return opResult{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	if e := resp.Trailer.Get("X-Gcx-Error"); e != "" {
		return opResult{}, fmt.Errorf("error trailer: %s", e)
	}
	var r opResult
	if r.peak, err = strconv.ParseInt(resp.Trailer.Get("X-Gcx-Peak-Nodes"), 10, 64); err != nil {
		return opResult{}, fmt.Errorf("peak-nodes trailer: %w", err)
	}
	if span != 0 {
		r.handlerSpan, _ = strconv.Atoi(resp.Header.Get(spanHeader))
		if err := json.Unmarshal([]byte(resp.Trailer.Get("X-Gcx-Trace")), &r.phases); err != nil {
			return opResult{}, fmt.Errorf("trace trailer: %w", err)
		}
	}
	return r, nil
}

// countWriter keeps hashing and copying out of the timed path.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// verify runs one untimed operation and compares its whole output with
// the reference.
func (in *instance) verify() (opResult, error) {
	h := sha256.New()
	r, err := in.do(0, h, 0)
	if err != nil {
		return r, err
	}
	if !bytes.Equal(h.Sum(nil), in.refSum[:]) {
		return r, fmt.Errorf("output differs from the %d-byte sequential reference", in.ref.OutputBytes)
	}
	return r, nil
}

// windowStats is what one window of back-to-back operations measured.
type windowStats struct {
	elapsed  time.Duration
	lat      []float64 // ms, of operations that completed with the right output
	ends     []float64 // s since the window began, when each of them completed
	failed   int
	failures []string // the first few, for the report
	peak     int64
	mallocs  uint64
	phases   map[string][]float64 // traced windows: per phase, ms per operation
}

// window runs the workload's clients back to back for d. With rec set
// the operations are traced and their spans recorded.
func (in *instance) window(d time.Duration, rec *recorder) windowStats {
	clients := 1
	if in.w.Serve {
		clients = serveClients
	}
	in.rec.Store(rec)
	defer in.rec.Store(nil)
	per := make([]windowStats, clients)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			st.lat = make([]float64, 0, 1024)
			st.ends = make([]float64, 0, 1024)
			st.phases = map[string][]float64{}
			for time.Now().Before(deadline) {
				var out countWriter
				span := 0
				if rec != nil {
					span = rec.reserve(0, "op")
				}
				t0 := time.Now()
				r, err := in.do(c, &out, span)
				t1 := time.Now()
				if err == nil && out.n != in.ref.OutputBytes {
					err = fmt.Errorf("wrote %d bytes, reference has %d", out.n, in.ref.OutputBytes)
				}
				if err != nil {
					st.failed++
					if len(st.failures) < 3 {
						st.failures = append(st.failures, err.Error())
					}
					continue
				}
				st.lat = append(st.lat, ms(t1.Sub(t0)))
				st.ends = append(st.ends, t1.Sub(start).Seconds())
				st.peak = max(st.peak, r.peak)
				if rec != nil {
					rec.finish(span, t0, t1)
					recordPhases(rec, span, r, st.phases)
				}
			}
		}()
	}
	wg.Wait()
	all := windowStats{elapsed: time.Since(start), phases: map[string][]float64{}}
	runtime.ReadMemStats(&after)
	all.mallocs = after.Mallocs - before.Mallocs
	for _, st := range per {
		all.lat = append(all.lat, st.lat...)
		all.ends = append(all.ends, st.ends...)
		all.failed += st.failed
		all.failures = append(all.failures, st.failures...)
		all.peak = max(all.peak, st.peak)
		for k, v := range st.phases {
			all.phases[k] = append(all.phases[k], v...)
		}
	}
	return all
}

// layerOfPhase names the layer each phase of Result.Trace belongs to.
// compile is left out: it is paid once per query, not per operation.
var layerOfPhase = map[string]string{
	"setup":      "core.setup",
	"stream":     "engine.stream",
	"join_build": "join.build",
	"join_probe": "join.probe",
	"split":      "shard.split",
	"merge":      "shard.merge",
	"eval":       "engine.eval",
}

// recordPhases hangs the operation's reported phases under its
// innermost measured span and collects them per layer.
func recordPhases(rec *recorder, span int, r opResult, into map[string][]float64) {
	parent := span
	if r.handlerSpan != 0 {
		parent = r.handlerSpan
	}
	var derived []namedNanos
	for _, p := range r.phases {
		if layer, ok := layerOfPhase[p.Phase]; ok {
			derived = append(derived, namedNanos{layer, p.Nanos})
			into[layer] = append(into[layer], float64(p.Nanos)/1e6)
		}
	}
	rec.derive(parent, derived)
}
