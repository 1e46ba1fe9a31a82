package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// setUps is how often a pass sets the workload up; setup_s is the
// median, so one slow generation or listen does not decide it.
const setUps = 5

// errNeedsTwoProcs marks a workload refused because its figures would
// describe the scheduler, not the system.
var errNeedsTwoProcs = errors.New("needs GOMAXPROCS >= 2")

// runResult is one workload's end-to-end pass.
type runResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// Counts are made by the program on the reference and verification
	// operations; on one seed they repeat exactly.
	Counts map[string]int64 `json:"counts"`
	// Samples is the number of timed operations. The figures after it are
	// diagnostic: they include whatever the machine's other tenants did
	// during the window. LatencyP95Ms is present only from 200 samples up.
	Samples        int      `json:"samples"`
	MeanThroughput float64  `json:"mean_throughput_mbps"`
	LatencyP50Ms   float64  `json:"latency_p50_ms"`
	LatencyP95Ms   float64  `json:"latency_p95_ms,omitempty"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	Failures       []string `json:"failures,omitempty"`
	InputBytes     int      `json:"input_bytes"`
	InputSHA256    string   `json:"input_sha256"`
}

// setUpTimed sets the workload up setUps times, keeping the last
// instance, and returns the median set-up time.
func setUpTimed(w workload, cfg config) (*instance, float64, error) {
	if w.needsTwoProcs() && runtime.GOMAXPROCS(0) < 2 {
		return nil, 0, errNeedsTwoProcs
	}
	var in *instance
	times := make([]float64, setUps)
	for i := range times {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = setUp(w, cfg); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(t0).Seconds()
	}
	return in, median(times), nil
}

// counts are the program's own counters for one operation.
func counts(in *instance, verified opResult) map[string]int64 {
	r := in.ref
	c := map[string]int64{
		"tokens":            r.TokensProcessed,
		"bytes_skipped":     r.BytesSkipped,
		"subtrees_skipped":  r.SubtreesSkipped,
		"nodes_appended":    r.TotalAppended,
		"nodes_purged":      r.TotalPurged,
		"output_bytes":      r.OutputBytes,
		"peak_bytes":        r.PeakBufferedBytes,
		"join_probe_tuples": r.JoinProbeTuples,
		"join_build_tuples": r.JoinBuildTuples,
		"join_matches":      r.JoinMatches,
	}
	if verified.res != nil {
		c["shards_used"] = int64(verified.res.ShardsUsed)
		c["chunks"] = int64(verified.res.Chunks)
	}
	return c
}

// runWorkload is the end-to-end pass: set-up, a verified operation, the
// warm-up, the timed window with tracing off, a verified operation.
func runWorkload(w workload, cfg config) (*runResult, error) {
	in, setupS, err := setUpTimed(w, cfg)
	if err != nil {
		return nil, err
	}
	defer in.close()
	res := &runResult{InputBytes: len(in.doc), InputSHA256: in.sha}
	fail := func(err error) {
		res.Failed++
		res.Failures = append(res.Failures, err.Error())
	}

	res.Attempted++
	before, err := in.verify()
	if err != nil {
		fail(fmt.Errorf("verification before the window: %w", err))
	}
	in.window(cfg.Window/4, nil)
	runtime.GC()
	st := in.window(cfg.Window, nil)
	res.Attempted++
	if _, err := in.verify(); err != nil {
		fail(fmt.Errorf("verification after the window: %w", err))
	}

	res.Attempted += len(st.lat) + st.failed
	res.Failed += st.failed
	res.Failures = append(res.Failures, st.failures...)
	res.Samples = len(st.lat)
	if len(st.lat) == 0 {
		return res, fmt.Errorf("no operation completed in the %v window", cfg.Window)
	}
	docMiB := float64(len(in.doc)) / (1 << 20)
	mib := float64(len(st.lat)) * docMiB
	res.Metrics = map[string]float64{
		"throughput_mbps":     docMiB * bestStretchRate(st.ends, st.elapsed.Seconds()),
		"latency_p10_ms":      p10(st.lat),
		"peak_buffered_nodes": float64(st.peak),
		"allocs_per_mb":       float64(st.mallocs) / mib,
		"setup_s":             setupS,
	}
	res.MeanThroughput = mib / st.elapsed.Seconds()
	res.LatencyP50Ms = median(st.lat)
	if v, ok := p95(st.lat); ok {
		res.LatencyP95Ms = v
	}
	res.Counts = counts(in, before)
	return res, in.close()
}
