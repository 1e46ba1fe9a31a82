package main

import (
	"gcx/internal/xmark"
)

// metric is one named figure of the benchmark. Bound is the share of
// the base median by which an end-to-end metric may worsen before
// compare calls it a regression; per-layer metrics carry none.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the figures a user of the system sees, measured with
// tracing off. BENCHMARK.json repeats this table and TestSpecMatchesJSON
// holds the two together. The wall-clock bounds are the largest the
// contract allows, because on the 2-core sandbox the bounds were fixed on
// whole minutes run 10-25% slow now and then; README.md, "Spread and
// bounds", has the measurements. peak_buffered_nodes is a count that
// repeats exactly, so its bound only leaves room for rounding.
var endToEnd = []metric{
	{"throughput_mbps", "MiB/s", "higher", 0.25},
	{"latency_p10_ms", "ms", "lower", 0.25},
	{"peak_buffered_nodes", "nodes", "lower", 0.001},
	{"allocs_per_mb", "1/MiB", "lower", 0.06},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the figures of single layers, produced by the traced
// pass. Every one is emitted on every workload; a layer that is not on
// a workload's path reads 0 there (README.md has the layer → end-to-end
// table).
var perLayer = []metric{
	{Name: "cursor.scan_mbps", Unit: "MiB/s", Better: "higher"},
	{Name: "tokenizer.token_mbps", Unit: "MiB/s", Better: "higher"},
	{Name: "tokenizer.skip_mbps", Unit: "MiB/s", Better: "higher"},
	{Name: "serializer.serialize_mbps", Unit: "MiB/s", Better: "higher"},
	{Name: "splitter.split_mbps", Unit: "MiB/s", Better: "higher"},
	{Name: "projection.self_ns_per_token", Unit: "ns", Better: "lower"},
	{Name: "projection.pass_ms", Unit: "ms", Better: "lower"},
	{Name: "buffer.append_purge_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.stream_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "join.build_ms", Unit: "ms", Better: "lower"},
	{Name: "join.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "join.table_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.speedup", Unit: "ratio", Better: "higher"},
	{Name: "shard.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.chunks", Unit: "count", Better: "higher"},
	{Name: "core.reader_over_bytes", Unit: "ratio", Better: "lower"},
	{Name: "core.setup_us", Unit: "us", Better: "lower"},
	{Name: "compile_us", Unit: "us", Better: "lower"},
	{Name: "cache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "gcxd.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "gcxd.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.attributed_pct", Unit: "%", Better: "higher"},
	{Name: "count.tokens", Unit: "count", Better: "lower"},
	{Name: "count.bytes_skipped", Unit: "count", Better: "higher"},
	{Name: "count.subtrees_skipped", Unit: "count", Better: "higher"},
	{Name: "count.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "count.nodes_appended", Unit: "count", Better: "lower"},
	{Name: "count.nodes_purged", Unit: "count", Better: "higher"},
	{Name: "count.output_bytes", Unit: "count", Better: "lower"},
	{Name: "count.join_probe_tuples", Unit: "count", Better: "lower"},
	{Name: "count.join_build_tuples", Unit: "count", Better: "lower"},
	{Name: "count.join_matches", Unit: "count", Better: "lower"},
	{Name: "count.cache_hits", Unit: "count", Better: "higher"},
	{Name: "count.cache_misses", Unit: "count", Better: "lower"},
	{Name: "buffer.peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "analysis.bound_slack", Unit: "ratio", Better: "higher"},
}

// workload is one set of inputs the benchmark runs. The library sees
// only the bytes generated from the seed.
type workload struct {
	Name     string
	Why      string
	Query    string
	NDJSON   bool
	DocBytes int64
	Shards   int  // Options.Shards; 0 is the sequential engine
	Serve    bool // through an in-process gcxd over loopback HTTP, 2 closed-loop clients
}

// queryE1 emits whole item subtrees, so the tokenizer, the projection,
// the buffer's append and sign-off and the serializer all carry the
// document's bulk while skipping stays cheap.
const queryE1 = `<result>{ for $r in /site/regions return for $i in $r//item return $i }</result>`

const (
	libraryDoc = 16 << 20
	smallBody  = 256 << 10 // under gcxd.DefaultBytesBodyLimit: buffered once, zero-copy path
	streamBody = 4 << 20   // above it: streamed through the refilling cursor
	oracleDoc  = 1 << 20   // GCX and DOM engines must agree at this size in set-up
)

var workloads = []workload{
	{
		Name:     "xml-skip",
		Why:      "XMark Q1 on 16 MiB: 93% of bytes are fast-forwarded, so the cursor and the skip scan do nearly all the work and engine, buffer and serializer almost none",
		Query:    xmark.Queries["Q1"].Text,
		DocBytes: libraryDoc,
	},
	{
		Name:     "xml-emit",
		Why:      "query E1 emits every item subtree: 416k tokens, 255k nodes appended and purged, 7.5 MB serialized, so tokenizing, projection, buffer sign-off and the serializer dominate",
		Query:    queryE1,
		DocBytes: libraryDoc,
	},
	{
		Name:     "xml-join",
		Why:      "XMark Q8: the streaming hash join's build and probe, and the only workload whose buffer peak is not a small constant (15391 nodes), so peak_buffered_nodes can move here",
		Query:    xmark.Queries["Q8"].Text,
		DocBytes: libraryDoc,
	},
	{
		Name:     "xml-shard",
		Why:      "XMark Q6 at Shards=2: the same bytes go through split scan, chunk re-wrap, workers and ordered merge, so a skip-loop gain that costs the splitter, or the reverse, shows",
		Query:    xmark.Queries["Q6"].Text,
		DocBytes: libraryDoc,
		Shards:   2,
	},
	{
		Name:     "ndjson-filter",
		Why:      "NDJSON bid-log J1: the JSON tokenizer plus per-record engine, frame and item churn; 85% of bytes are skipped yet it runs at a quarter of XML's speed",
		Query:    xmark.NDJSONQueries["J1"].Text,
		NDJSON:   true,
		DocBytes: libraryDoc,
	},
	{
		Name:     "serve-small",
		Why:      "gcxd over loopback, 2 closed-loop clients, Q6 on a 256 KiB body (zero-copy path): per-request cost - HTTP ingest, cache hit, pools, trailers - dominates the engine",
		Query:    xmark.Queries["Q6"].Text,
		DocBytes: smallBody,
		Serve:    true,
	},
	{
		Name:     "serve-stream",
		Why:      "same server and clients, Q6 on a 4 MiB body (streamed reader path): ingest overlaps evaluation and the engine dominates, so a gcxd fix should leave this flat",
		Query:    xmark.Queries["Q6"].Text,
		DocBytes: streamBody,
		Serve:    true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// needsTwoProcs reports whether the workload's figures mean anything
// only with two processors: two shard workers, or two clients beside
// the server.
func (w workload) needsTwoProcs() bool { return w.Shards > 1 || w.Serve }
