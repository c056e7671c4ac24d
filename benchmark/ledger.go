package main

import (
	"io/fs"
	"path/filepath"

	"harbor/internal/core"
)

// commonLayers adds the per-layer metrics every workload shares: ratios of
// registry counts (source R) to the window's committed transactions and to
// the thousands of rows the workers scanned.
func commonLayers(r *report, reg *registryWindow, cfg clusterConfig) {
	co, wk := reg.coord, reg.workers
	commits := co.counters["coord.commits"]
	krows := (wk.counters["worker.scan.rows"] + wk.counters["worker.agg.rows_in"]) / 1000
	reads := co.counters["coord.scan.batches"] + co.counters["coord.agg.queries"]

	r.add("coord.msgs_per_commit", "count", ratio(co.counters["coord.msgs_sent"], commits), int(commits))
	r.add("coord.aborts", "count", co.counters["coord.aborts"], int(commits))

	forced := co.counters["wal.force_calls"] + wk.counters["wal.force_calls"]
	cost := cfg.protocol.ExpectedCost()
	r.add("txn.forced_writes_per_commit", "count", ratio(forced, commits), int(commits))
	r.add("txn.forced_writes_expected", "count",
		float64(cost.CoordForcedWrites+cfg.workers*cost.WorkerForcedWrites), 1)

	dials, reuses := co.counters["comm.dials"], co.counters["comm.reuses"]
	r.add("comm.dials_per_op", "count", ratio(dials, commits+reads), int(dials))
	r.add("comm.reuse_ratio", "ratio", ratio(reuses, reuses+dials), int(reuses+dials))

	r.add("lockmgr.wait_us_per_commit", "us", ratio(wk.histSum["lockmgr.wait.ns"]/1e3, commits), int(wk.histCount["lockmgr.wait.ns"]))
	r.add("lockmgr.timeouts", "count", wk.counters["lockmgr.timeouts"], int(commits))

	hits, misses := wk.counters["buffer.hits"], wk.counters["buffer.misses"]
	r.add("buffer.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	r.add("buffer.evictions_per_krow", "count", ratio(wk.counters["buffer.evictions"], krows), int(wk.counters["buffer.evictions"]))
	r.add("buffer.flushes", "count", wk.counters["buffer.flushes"], int(wk.counters["buffer.flushes"]))

	r.add("storage.page_reads_per_krow", "count", ratio(wk.counters["storage.page.reads"], krows), int(wk.counters["storage.page.reads"]))
	r.add("storage.page_writes_per_commit", "count", ratio(wk.counters["storage.page.writes"], commits), int(wk.counters["storage.page.writes"]))
	r.add("storage.fsyncs_per_commit", "count", ratio(wk.counters["storage.fsyncs"], commits), int(wk.counters["storage.fsyncs"]))

	fsyncs := co.counters["wal.fsyncs"] + wk.counters["wal.fsyncs"]
	appends := co.counters["wal.appends"] + wk.counters["wal.appends"]
	fsyncNS := co.histSum["wal.fsync.ns"] + wk.histSum["wal.fsync.ns"]
	r.add("wal.fsyncs_per_commit", "count", ratio(fsyncs, commits), int(fsyncs))
	r.add("wal.appends_per_fsync", "count", ratio(appends, fsyncs), int(appends))
	r.add("wal.fsync_us_mean", "us", ratio(fsyncNS/1e3, fsyncs), int(fsyncs))
	// Forced writes a commit waits for one after the other: all of the
	// coordinator's, and one worker's share (the workers force in parallel).
	r.add("wal.critical_path_us_per_commit", "us",
		ratio(co.counters["wal.force_calls"], commits)*co.histMean("wal.fsync.ns")/1e3+
			ratio(wk.counters["wal.force_calls"], commits*float64(cfg.workers))*wk.histMean("wal.fsync.ns")/1e3,
		int(forced))

	r.add("worker.commits", "count", wk.counters["worker.commits"], int(commits))
	r.add("worker.aborts", "count", wk.counters["worker.aborts"], int(commits))
	r.add("worker.rows_per_frame", "count", ratio(wk.counters["worker.scan.rows"], wk.counters["worker.scan.frames"]), int(wk.counters["worker.scan.frames"]))
	r.add("worker.agg_rows_in_per_group", "count", ratio(wk.counters["worker.agg.rows_in"], wk.counters["worker.agg.groups"]), int(wk.counters["worker.agg.groups"]))
	r.add("wire.bytes_per_row", "B", ratio(wk.counters["worker.scan.bytes"], wk.counters["worker.scan.rows"]), int(wk.counters["worker.scan.rows"]))
	r.add("coord.agg_rows_shipped_per_query", "count", ratio(co.counters["coord.agg.rows_shipped"], co.counters["coord.agg.queries"]), int(co.counters["coord.agg.queries"]))
}

// spaceLayer adds bytes on disk under the workers' directories per byte of
// live user data (live rows × tuple width × replicas).
func spaceLayer(r *report, cl *cluster, liveBytes float64) {
	var onDisk int64
	for i := range cl.workers {
		_ = filepath.WalkDir(cl.siteDir(i), func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil // a file that vanished mid-walk only lowers the figure
			}
			if info, err := d.Info(); err == nil {
				onDisk += info.Size()
			}
			return nil
		})
	}
	r.add("storage.bytes_per_live_byte", "ratio", ratio(float64(onDisk), liveBytes), 1)
}

// commitLayers adds the spans of the transaction path (source S).
func commitLayers(r *report, spans map[string]spanTotals) {
	r.add("coord.write_call_us", "us", spans["coord.write"].meanUS(), spans["coord.write"].count)
	r.add("coord.commit_call_us", "us", spans["coord.commit"].meanUS(), spans["coord.commit"].count)
	// The client's own time inside a transaction and outside any call into
	// the coordinator: the harness's share of the latency.
	txn := spans["txn"]
	r.add("client.txn_self_us", "us", ratio(float64(txn.self.Microseconds()), float64(txn.count)), txn.count)
}

// scanLayers adds scan-agg's comparisons of the coordinator's reads with
// the same reads taken straight from the workers (source S).
func scanLayers(r *report, spans map[string]spanTotals, w *scanWorkload) {
	direct := spans["worker.direct_scan"]
	full := spans["coord.scan_stream"]
	// One ScanStream against the four partitions drained one after the
	// other by a single client: what the coordinator's fan-out, decode,
	// merge and sink add (or, when negative, what its parallelism saves).
	r.add("coord.merge_share", "ratio", 1-ratio(direct.total.Seconds(), full.total.Seconds()/float64(max(full.count, 1))), full.count)
	r.add("coord.range_overhead_us", "us", spans["coord.range_scan"].meanUS()-spans["worker.direct_range_scan"].meanUS(), spans["coord.range_scan"].count)
	r.add("worker.direct_scan_rows_per_s", "1/s", ratio(float64(w.directRows), direct.total.Seconds()), direct.count)
}

// coreLayers adds the transfer engine's phase times from the public
// ObjectStats of every RecoverSite and Migrate, and its copy rates.
func coreLayers(r *report, reg *registryWindow, w *recoverWorkload) {
	phase := func(pick func(core.ObjectStats) float64) float64 {
		var v []float64
		for _, o := range w.objects {
			v = append(v, pick(o))
		}
		return median(v)
	}
	n := len(w.objects)
	r.add("core.phase1_ms", "ms", phase(func(o core.ObjectStats) float64 { return o.Phase1.Seconds() * 1e3 }), n)
	r.add("core.phase2_update_ms", "ms", phase(func(o core.ObjectStats) float64 { return o.Phase2Update.Seconds() * 1e3 }), n)
	r.add("core.phase2_insert_ms", "ms", phase(func(o core.ObjectStats) float64 { return o.Phase2Insert.Seconds() * 1e3 }), n)
	r.add("core.phase3_ms", "ms", phase(func(o core.ObjectStats) float64 { return o.Phase3.Seconds() * 1e3 }), n)
	r.add("core.phase2_rounds", "count", phase(func(o core.ObjectStats) float64 { return float64(o.Rounds) }), n)
	copied := reg.workers.counters["recovery.phase2.tuples"] + reg.workers.counters["recovery.phase3.tuples"]
	r.add("core.copy_tuples_per_s", "1/s", ratio(copied, w.catchup.total().Seconds()), int(copied))
	moved := reg.workers.counters["migrate.copied.tuples"]
	r.add("core.migrate_copy_tuples_per_s", "1/s", ratio(moved, w.migrated.total().Seconds()), int(moved))
}

// attribute computes ledger.unattributed_share for one workload: one minus
// the share of the workload's median operation latency that registry counts
// times kernel unit costs, directly measured waits and the client's own
// span self time account for. get reads a metric of the traced report
// (kernels included). The formulas are in benchmark/README.md.
func attribute(workload string, sc scale, get func(string) float64) (attributedUS, latencyUS float64) {
	switch workload {
	case "commit-logless", "commit-logged", "mixed-rw":
		msgs := get("coord.msgs_per_commit")
		// Each fan-out round reaches the two workers in parallel.
		rounds := msgs / 2
		attributedUS = rounds*get("comm.rtt_us") +
			msgs*get("wire.msg_encode_ns")/1e3 +
			(get("version.insert_commit_ns")+get("version.update_commit_ns"))/1e3 +
			get("lockmgr.wait_us_per_commit") +
			get("wal.critical_path_us_per_commit") +
			get("client.txn_self_us")
		return attributedUS, get("commit_p50_us")
	case "scan-agg":
		// A narrow range scan still examines every row of every partition;
		// with as many clients as cores a query gets about one core, so
		// the per-row costs add up serially.
		rows, out := float64(sc.scanRows), float64(sc.scanRows/100)
		attributedUS = get("comm.rtt_us") +
			rows*get("exec.filter_ns_per_row")/1e3 +
			out*(get("wire.batch_encode_ns_per_row")+get("wire.batch_decode_ns_per_row")+get("tuple.batch_decode_ns_per_row"))/1e3
		return attributedUS, get("range_scan_p50_us")
	case "recover-migrate":
		attributedUS = 1e3 * (get("core.phase1_ms") + get("core.phase2_update_ms") + get("core.phase2_insert_ms") + get("core.phase3_ms"))
		return attributedUS, 1e3 * get("recover_catchup_ms")
	}
	return 0, 0
}
