// Package sim is the experiment harness that regenerates every table and
// figure of the thesis's evaluation (Chapter 6). It is shared by the
// testing.B benchmarks in the repository root and by cmd/harbor-bench.
//
// The experiments run against real in-process clusters (TCP loopback, real
// files, real fsync). Sizes are scaled down from the paper's 1 GB tables /
// 10 MB segments / 10000×N transactions; the knobs are all configurable so
// a larger box can push them back up. See DESIGN.md for the substitution
// argument.
package sim

import (
	"fmt"
	"os"
	"sync"
	"time"

	"harbor/internal/core"
	"harbor/internal/obs"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// BenchDesc is the evaluation schema: 16 four-byte-integer-equivalent
// fields including the two timestamps (§6.2). Field "id" is the tuple
// identifier; the remaining 13 int32 fields are payload.
func BenchDesc() *tuple.Desc {
	fields := []tuple.FieldDef{{Name: "id", Type: tuple.Int64}}
	for i := 0; i < 13; i++ {
		fields = append(fields, tuple.FieldDef{Name: fmt.Sprintf("f%d", i), Type: tuple.Int32})
	}
	return tuple.MustDesc("id", fields...)
}

// BenchTuple builds one benchmark tuple.
func BenchTuple(d *tuple.Desc, id int64) tuple.Tuple {
	vals := make([]tuple.Value, 14)
	vals[0] = tuple.VInt(id)
	for i := 1; i < 14; i++ {
		vals[i] = tuple.VInt(id + int64(i))
	}
	return tuple.MustMake(d, vals...)
}

// ProtoConfig names one line of Figure 6-2 / 6-3.
type ProtoConfig struct {
	Name        string
	Protocol    txn.Protocol
	Mode        worker.RecoveryMode
	GroupCommit bool
	Workers     int // 1 = the "2PC without replication" line
}

// StandardConfigs returns the six configurations of Figure 6-2 in the
// paper's legend order.
func StandardConfigs() []ProtoConfig {
	return []ProtoConfig{
		{Name: "optimized 3PC (no logging)", Protocol: txn.OptThreePC, Mode: worker.HARBOR, GroupCommit: true, Workers: 2},
		{Name: "optimized 2PC (no worker logging)", Protocol: txn.OptTwoPC, Mode: worker.HARBOR, GroupCommit: true, Workers: 2},
		{Name: "canonical 3PC", Protocol: txn.ThreePC, Mode: worker.ARIES, GroupCommit: true, Workers: 2},
		{Name: "traditional 2PC", Protocol: txn.TwoPC, Mode: worker.ARIES, GroupCommit: true, Workers: 2},
		{Name: "2PC without group commit", Protocol: txn.TwoPC, Mode: worker.ARIES, GroupCommit: false, Workers: 2},
		{Name: "2PC without replication", Protocol: txn.TwoPC, Mode: worker.ARIES, GroupCommit: true, Workers: 1},
	}
}

// CommitResult is one data point of Figures 6-2 / 6-3.
type CommitResult struct {
	Config      string
	Concurrency int
	WorkCycles  int64
	Txns        int
	Elapsed     time.Duration
	TPS         float64
	AvgLatency  time.Duration
	// CommitLatency is the coordinator's per-commit latency distribution
	// (coord.commit.latency.ns from the obs registry), warm-up excluded.
	CommitLatency *obs.HistSnapshot
}

// SimulatedDiskLatency models the thesis testbed's disk: a forced log
// write cost several milliseconds there, where a modern NVMe fsync costs
// ~0.1 ms. Commit benches default to this extra per-fsync latency so the
// paper's disk ≫ network regime (and with it the group-commit effects of
// Figure 6-2) is reproduced; pass a negative SyncDelay to RunCommitBenchD
// to disable it.
const SimulatedDiskLatency = 2 * time.Millisecond

// RunCommitBench measures transaction throughput for one configuration at
// one concurrency level, optionally with simulated CPU work per transaction
// (§6.3). Each concurrent stream inserts single tuples into its own table
// so that conflicts never arise, exactly as in the paper.
func RunCommitBench(baseDir string, cfg ProtoConfig, concurrency, txnsPerStream int, workCycles int64) (CommitResult, error) {
	return RunCommitBenchD(baseDir, cfg, concurrency, txnsPerStream, workCycles, SimulatedDiskLatency)
}

// RunCommitBenchD is RunCommitBench with an explicit simulated disk
// latency (0 or negative = real fsync speed only).
func RunCommitBenchD(baseDir string, cfg ProtoConfig, concurrency, txnsPerStream int, workCycles int64, syncDelay time.Duration) (CommitResult, error) {
	res := CommitResult{Config: cfg.Name, Concurrency: concurrency, WorkCycles: workCycles}
	if syncDelay < 0 {
		syncDelay = 0
	}
	cl, err := testutil.NewCluster(testutil.ClusterConfig{
		Workers:     cfg.Workers,
		Protocol:    cfg.Protocol,
		Mode:        cfg.Mode,
		GroupCommit: cfg.GroupCommit,
		SyncDelay:   syncDelay,
		LockTimeout: 5 * time.Second,
		PoolFrames:  4096,
		BaseDir:     baseDir,
	})
	if err != nil {
		return res, err
	}
	defer cl.Close()
	desc := BenchDesc()
	for s := 0; s < concurrency; s++ {
		if err := cl.CreateReplicatedTable(int32(s+1), desc, 256); err != nil {
			return res, err
		}
	}
	// Warm-up: one transaction per stream.
	for s := 0; s < concurrency; s++ {
		tx := cl.Coord.Begin()
		if err := tx.Insert(int32(s+1), BenchTuple(desc, -int64(s)-1)); err != nil {
			return res, err
		}
		if _, err := tx.Commit(); err != nil {
			return res, err
		}
	}

	// Drop warm-up traffic from every counter and histogram so the reported
	// distribution covers the measured window only.
	cl.Coord.ResetCounters()
	for _, w := range cl.Workers {
		w.ResetCounters()
	}

	var wg sync.WaitGroup
	errs := make([]error, concurrency)
	start := time.Now()
	for s := 0; s < concurrency; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			table := int32(s + 1)
			for i := 0; i < txnsPerStream; i++ {
				tx := cl.Coord.Begin()
				if workCycles > 0 {
					if err := tx.SimWork(table, workCycles); err != nil {
						errs[s] = err
						return
					}
				}
				if err := tx.Insert(table, BenchTuple(desc, int64(s*txnsPerStream+i))); err != nil {
					errs[s] = err
					return
				}
				if _, err := tx.Commit(); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.Txns = concurrency * txnsPerStream
	res.TPS = float64(res.Txns) / res.Elapsed.Seconds()
	res.AvgLatency = res.Elapsed / time.Duration(txnsPerStream)
	if h, ok := cl.Coord.Obs().Snapshot().Histograms["coord.commit.latency.ns"]; ok {
		res.CommitLatency = &h
	}
	return res, nil
}

// RecoveryScenario enumerates the four Figure 6-4/6-5 scenarios.
type RecoveryScenario uint8

const (
	// Aries1Table: log-based restart, single table.
	Aries1Table RecoveryScenario = iota + 1
	// Harbor1Table: HARBOR recovery of one table from one buddy.
	Harbor1Table
	// Harbor2TablesSerial: two tables recovered one after the other.
	Harbor2TablesSerial
	// Harbor2TablesParallel: two tables recovered concurrently, one from
	// each remaining worker.
	Harbor2TablesParallel
)

// String names the scenario as in the figure legends.
func (s RecoveryScenario) String() string {
	switch s {
	case Aries1Table:
		return "ARIES, 1 table"
	case Harbor1Table:
		return "HARBOR, 1 table"
	case Harbor2TablesSerial:
		return "HARBOR, serial, 2 tables"
	case Harbor2TablesParallel:
		return "HARBOR, parallel, 2 tables"
	default:
		return fmt.Sprintf("RecoveryScenario(%d)", uint8(s))
	}
}

// RecoveryParams configures a recovery experiment (§6.4 setup).
type RecoveryParams struct {
	Scenario RecoveryScenario
	// PreloadSegments approximates the paper's 1 GB table as this many full
	// segments per table (the last one half full, like the paper's 101st).
	PreloadSegments int
	// SegPages is the segment size in pages (paper: 10 MB ≙ 2560 pages;
	// scaled default 64 = 256 KB).
	SegPages int32
	// InsertTxns is the number of single-insert transactions to recover.
	InsertTxns int
	// HistoricalSegmentUpdates spreads one update into each of this many
	// distinct historical segments (Figure 6-5's x-axis), replacing an
	// equal number of insert transactions.
	HistoricalSegmentUpdates int
}

// RecoveryResult is one recovery measurement.
type RecoveryResult struct {
	Scenario     RecoveryScenario
	InsertTxns   int
	HistSegments int
	RecoveryTime time.Duration
	// Phase decomposition (HARBOR scenarios; Figure 6-6). Aggregated over
	// objects for multi-table scenarios.
	Phase1, Phase2Update, Phase2Insert, Phase3 time.Duration
	TuplesCopied, DeletesCopied                int
}

func (p RecoveryParams) withDefaults() RecoveryParams {
	if p.PreloadSegments == 0 {
		p.PreloadSegments = 20
	}
	if p.SegPages == 0 {
		p.SegPages = 64
	}
	return p
}

// RunRecoveryBench stages the §6.4 experiment: preload the table(s)
// identically on every worker, checkpoint, run the update workload without
// flushing any data pages at the workers, crash one worker, and measure
// the time for it to recover.
func RunRecoveryBench(baseDir string, p RecoveryParams) (RecoveryResult, error) {
	p = p.withDefaults()
	res := RecoveryResult{Scenario: p.Scenario, InsertTxns: p.InsertTxns, HistSegments: p.HistoricalSegmentUpdates}
	mode := worker.HARBOR
	protocol := txn.OptThreePC
	if p.Scenario == Aries1Table {
		mode = worker.ARIES
		protocol = txn.TwoPC
	}
	nTables := 1
	if p.Scenario == Harbor2TablesSerial || p.Scenario == Harbor2TablesParallel {
		nTables = 2
	}
	cl, err := testutil.NewCluster(testutil.ClusterConfig{
		Workers:     3,
		Protocol:    protocol,
		Mode:        mode,
		GroupCommit: true,
		LockTimeout: 5 * time.Second,
		PoolFrames:  1 << 16, // workers must hold the workload dirty (§6.4: "do not flush")
		BaseDir:     baseDir,
	})
	if err != nil {
		return res, err
	}
	defer cl.Close()
	desc := BenchDesc()

	// In the parallel 2-table scenario each table is recovered from a
	// different buddy: replicate table 1 on workers {0,1} and table 2 on
	// workers {0,2}. Single-table scenarios replicate on {0,1}.
	switch nTables {
	case 1:
		if err := cl.CreateReplicatedTable(1, desc, p.SegPages, 0, 1); err != nil {
			return res, err
		}
	case 2:
		if err := cl.CreateReplicatedTable(1, desc, p.SegPages, 0, 1); err != nil {
			return res, err
		}
		if err := cl.CreateReplicatedTable(2, desc, p.SegPages, 0, 2); err != nil {
			return res, err
		}
	}

	// ---- Preload via bulk load (fast path; identical replicas) ----
	perSeg := tuplesPerSegment(desc, p.SegPages)
	preloadTS := tuple.Timestamp(1)
	nextKey := int64(0)
	for t := 1; t <= nTables; t++ {
		for seg := 0; seg < p.PreloadSegments; seg++ {
			n := perSeg
			if seg == p.PreloadSegments-1 {
				n = perSeg / 2 // the paper's half-full last segment
			}
			batch := make([]tuple.Tuple, n)
			for i := 0; i < n; i++ {
				tp := BenchTuple(desc, nextKey)
				tp.SetInsTS(preloadTS)
				batch[i] = tp
				nextKey++
			}
			preloadTS++
			for wi, w := range cl.Workers {
				if !replicaHasTable(nTables, wi, t) {
					continue
				}
				tb, err := w.Mgr.Get(int32(t))
				if err != nil {
					return res, err
				}
				if _, err := tb.Heap.BulkLoadSegment(batch); err != nil {
					return res, err
				}
			}
		}
	}
	cl.Coord.Authority.Advance(preloadTS)
	for _, w := range cl.Workers {
		w.SeedAppliedTS(preloadTS)
		if err := w.CheckpointNow(); err != nil {
			return res, err
		}
		if w.Log != nil {
			// ARIES fuzzy checkpoint so the log scan starts after preload.
			if err := w.CheckpointNow(); err != nil {
				return res, err
			}
		}
	}
	// Bulk load bypasses the key indexes; rebuild them so the update
	// workload's index lookups work.
	for _, w := range cl.Workers {
		if err := w.Mgr.RebuildIndexes(); err != nil {
			return res, err
		}
	}

	// ---- The workload to be recovered ----
	histTargets := historicalTargets(p, perSeg, nTables)
	inserts := p.InsertTxns - len(histTargets)
	if inserts < 0 {
		inserts = 0
	}
	keyBase := nextKey + 1_000_000
	for i := 0; i < inserts; i++ {
		table := int32(i%nTables + 1)
		tx := cl.Coord.Begin()
		if err := tx.Insert(table, BenchTuple(desc, keyBase+int64(i))); err != nil {
			return res, err
		}
		if _, err := tx.Commit(); err != nil {
			return res, err
		}
	}
	for _, target := range histTargets {
		tx := cl.Coord.Begin()
		if err := tx.UpdateKey(target.table, target.key, BenchTuple(desc, target.key)); err != nil {
			return res, err
		}
		if _, err := tx.Commit(); err != nil {
			return res, err
		}
	}

	// ---- Crash worker 0 and measure recovery ----
	cl.Workers[0].Crash()
	w, err := cl.RestartWorker(0)
	if err != nil {
		return res, err
	}
	start := time.Now()
	if p.Scenario == Aries1Table {
		if _, err := w.RecoverARIES(); err != nil {
			return res, err
		}
	} else {
		stats, err := core.New(w, cl.Catalog).RecoverSite(core.Options{
			Parallel: p.Scenario != Harbor2TablesSerial,
		})
		if err != nil {
			return res, err
		}
		for _, o := range stats.Objects {
			res.Phase1 += o.Phase1
			res.Phase2Update += o.Phase2Update
			res.Phase2Insert += o.Phase2Insert
			res.Phase3 += o.Phase3
			res.TuplesCopied += o.Phase2Inserts + o.Phase3Inserts
			res.DeletesCopied += o.Phase2Deletes + o.Phase3Deletes
		}
	}
	res.RecoveryTime = time.Since(start)
	return res, nil
}

type histTarget struct {
	table int32
	key   int64
}

// historicalTargets picks one existing key in each of the first H historical
// segments, round-robining across tables in the two-table scenarios.
func historicalTargets(p RecoveryParams, perSeg, nTables int) []histTarget {
	var out []histTarget
	perTable := int64(0)
	for seg := 0; seg < p.PreloadSegments; seg++ {
		n := perSeg
		if seg == p.PreloadSegments-1 {
			n = perSeg / 2
		}
		perTable += int64(n)
	}
	for h := 0; h < p.HistoricalSegmentUpdates; h++ {
		tableIdx := h % nTables
		segIdx := (h / nTables) % (p.PreloadSegments - 1) // skip the last segment (always scanned)
		key := int64(tableIdx)*perTable + int64(segIdx)*int64(perSeg) + int64(h%perSeg)
		out = append(out, histTarget{table: int32(tableIdx + 1), key: key})
	}
	return out
}

// replicaHasTable mirrors the replica layout choices above.
func replicaHasTable(nTables, workerIdx, table int) bool {
	if workerIdx == 0 {
		return true
	}
	if nTables == 1 {
		return workerIdx == 1 && table == 1
	}
	return (workerIdx == 1 && table == 1) || (workerIdx == 2 && table == 2)
}

// tuplesPerSegment computes a segment's tuple capacity.
func tuplesPerSegment(d *tuple.Desc, segPages int32) int {
	return int(segPages) * slotsPerPage(d)
}

func slotsPerPage(d *tuple.Desc) int {
	// page.SlotsPerPage without importing page here.
	width := d.Width()
	slots := (4096 - 10) * 8 / (width*8 + 1)
	for slots > 0 && 10+(slots+7)/8+slots*width > 4096 {
		slots--
	}
	return slots
}

// TempDir makes a scratch directory for one experiment run.
func TempDir(prefix string) (string, func(), error) {
	dir, err := os.MkdirTemp("", prefix)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
