package main

import "slices"

// metricDef is one per-layer entry of BENCHMARK.json; boundedDef is one
// end-to-end entry, with the share of the parent's median by which the
// metric may worsen before a change is rejected.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

func bounded(name, unit, better string, bound float64) boundedDef {
	return boundedDef{metricDef{name, unit, better}, bound}
}

// endToEndDefs are the metrics every run of every workload reports with
// tracing off, and that the driver gates. The contract wants each of them
// on every workload, so they are named by role and README.md says what
// each role is per workload: work_per_s is the workload's bulk work
// completed per second and work2_per_s the rate of a second kind of work;
// op_p50_us and op_p95_us are the median and the 95th percentile of its
// latency-critical operation's latency.
var endToEndDefs = []boundedDef{
	bounded("setup_s", "s", "lower", 0.25),
	bounded("work_per_s", "1/s", "higher", 0.25),
	bounded("work2_per_s", "1/s", "higher", 0.25),
	bounded("op_p50_us", "us", "lower", 0.25),
	bounded("op_p95_us", "us", "lower", 0.25),
}

// namedDefs are the end-to-end metrics that exist on some workloads only,
// under the names the workloads' operations have. The driver's contract has
// no place for a gated metric that is absent from a workload, so a traced
// run reports them among the per-layer metrics (0 where one does not
// apply); `compare` judges them with the default bound of 0.10.
var namedDefs = []boundedDef{
	bounded("commit_tps", "1/s", "higher", 0.10),
	bounded("commit_p50_us", "us", "lower", 0.10),
	bounded("commit_p99_us", "us", "lower", 0.10),
	bounded("scan_rows_per_s", "1/s", "higher", 0.10),
	bounded("range_scan_p50_us", "us", "lower", 0.10),
	bounded("range_scan_p99_us", "us", "lower", 0.10),
	bounded("agg_p50_ms", "ms", "lower", 0.10),
	bounded("agg_p95_ms", "ms", "lower", 0.10),
	bounded("recover_catchup_ms", "ms", "lower", 0.10),
	bounded("first_read_ms", "ms", "lower", 0.10),
	bounded("migrate_ms_per_range", "ms", "lower", 0.10),
	bounded("failed_ops_share", "ratio", "lower", 0.10),
}

// comparedDefs are the rows `compare` prints per workload.
func comparedDefs() []boundedDef { return slices.Concat(endToEndDefs, namedDefs) }

// perLayerDefs are the metrics a traced run reports: the named end-to-end
// metrics, then the layers' own in the order of README.md's interaction
// table.
var perLayerDefs = slices.Concat(unbounded(namedDefs), layerDefs)

func unbounded(ds []boundedDef) []metricDef {
	out := make([]metricDef, len(ds))
	for i, d := range ds {
		out[i] = d.metricDef
	}
	return out
}

var layerDefs = []metricDef{
	{Name: "coord.write_call_us", Unit: "us", Better: "lower"},
	{Name: "coord.commit_call_us", Unit: "us", Better: "lower"},
	{Name: "coord.msgs_per_commit", Unit: "count", Better: "lower"},
	{Name: "coord.aborts", Unit: "count", Better: "lower"},
	{Name: "coord.merge_share", Unit: "ratio", Better: "lower"},
	{Name: "coord.range_overhead_us", Unit: "us", Better: "lower"},
	{Name: "coord.agg_rows_shipped_per_query", Unit: "count", Better: "lower"},
	{Name: "txn.forced_writes_per_commit", Unit: "count", Better: "lower"},
	{Name: "txn.forced_writes_expected", Unit: "count", Better: "lower"},
	{Name: "comm.rtt_us", Unit: "us", Better: "lower"},
	{Name: "comm.dials_per_op", Unit: "count", Better: "lower"},
	{Name: "comm.reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "wire.msg_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "tuple.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.batch_decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "page.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "page.slot_read_ns", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.wait_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "lockmgr.timeouts", Unit: "count", Better: "lower"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.evictions_per_krow", Unit: "count", Better: "lower"},
	{Name: "buffer.flushes", Unit: "count", Better: "lower"},
	{Name: "buffer.getpage_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.getpage_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.page_reads_per_krow", Unit: "count", Better: "lower"},
	{Name: "storage.page_writes_per_commit", Unit: "count", Better: "lower"},
	{Name: "storage.fsyncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "storage.bytes_per_live_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.read_page_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.write_page_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.keyindex_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.fsyncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.appends_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.fsync_us_mean", Unit: "us", Better: "lower"},
	{Name: "wal.critical_path_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.force_us", Unit: "us", Better: "lower"},
	{Name: "version.insert_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "version.update_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.seqscan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "exec.filter_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "exec.groupagg_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "worker.direct_scan_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "worker.rows_per_frame", Unit: "count", Better: "higher"},
	{Name: "worker.agg_rows_in_per_group", Unit: "count", Better: "higher"},
	{Name: "worker.commits", Unit: "count", Better: "higher"},
	{Name: "worker.aborts", Unit: "count", Better: "lower"},
	{Name: "core.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase2_update_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase2_insert_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase3_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase2_rounds", Unit: "count", Better: "lower"},
	{Name: "core.copy_tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.migrate_copy_tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "client.txn_self_us", Unit: "us", Better: "lower"},
	{Name: "probe.late_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.traced_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "ledger.unattributed_share", Unit: "ratio", Better: "lower"},
}

// manifest is BENCHMARK.json. `go run . manifest` prints it, and the smoke
// test fails when the checked-in file and this table disagree.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []boundedDef       `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 20

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	return m
}
