package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// scale holds every size a workload uses. fullScale is the benchmark;
// toyScale is the smoke test's, small enough for all five workloads to run
// in seconds.
type scale struct {
	commitRows  int64 // rows preloaded into each commit client's table
	commitPool  int   // pool frames: the tables fit, growth included
	scanRows    int64 // scan-agg table
	scanPool    int   // the table fits in the pools
	mixedRows   int64 // mixed-rw table
	mixedPool   int   // a quarter of the mixed-rw table's pages
	recoverRows int64 // recover-migrate table
	recoverPool int
	delta       int   // updates = inserts = deletes per recover cycle
	hotKeys     int64 // keys the recovery probe reads
	warmTxns    int   // untimed transactions per client before a window
}

var fullScale = scale{
	commitRows: 50_000, commitPool: 16384,
	scanRows: 100_000, scanPool: 16384,
	mixedRows: 200_000, mixedPool: 1024,
	recoverRows: 100_000, recoverPool: 16384,
	delta: 2000, hotKeys: 1000,
	warmTxns: 200,
}

var toyScale = scale{
	commitRows: 1000, commitPool: 256,
	scanRows: 1000, scanPool: 256,
	mixedRows: 1000, mixedPool: 8,
	recoverRows: 1000, recoverPool: 256,
	delta: 50, hotKeys: 100,
	warmTxns: 5,
}

// tailQ is the tail percentile BENCHMARK.json gates on every workload. p95
// is the highest the smallest sample set (scan-agg's narrow range scans,
// a few hundred per run) supports with ten samples beyond it.
const tailQ = 0.95

// env is what one pass of one workload runs in.
type env struct {
	seed int64
	sc   scale
	dir  string  // fresh directory for the cluster's sites
	tr   *tracer // nil on the untraced pass
}

// timed runs op and returns how long it took on the wall clock.
func timed(op func()) time.Duration {
	start := time.Now()
	op()
	return time.Since(start)
}

// headline is what BENCHMARK.json gates on every workload: the rates of
// its bulk work and of a second kind of work, and the median and 95th
// percentile of its latency-critical operation's latency in µs. README.md
// says what fills each on each workload.
type headline struct {
	workPerS, work2PerS float64
	opP50US, opP95US    float64
}

// workload is one of the five named workloads. A value serves one pass:
// setup, run, verify, report, close.
type workload interface {
	// setup builds the cluster, preloads it and warms it up (untimed work
	// that setup_s measures).
	setup(e *env) error
	// run drives the clients for about d and records their samples. On the
	// traced pass reg collects the registry deltas of the window.
	run(d time.Duration, reg *registryWindow)
	// baselines runs the traced pass's extra direct-to-worker measurements;
	// it is outside the window throughput is computed over.
	baselines() error
	// verify runs the end-of-workload correctness checks and returns how
	// many ran.
	verify() (int, error)
	// counts returns operations attempted and failed so far, and the
	// correctness checks that already ran inside run.
	counts() (attempted, failed int64, checks int)
	// headline returns the window's four gated metrics.
	headline() headline
	// endToEnd adds the workload's named end-to-end metrics.
	endToEnd(r *report)
	// layers adds the per-layer metrics only this workload has, from spans
	// and registry deltas.
	layers(r *report, reg *registryWindow, spans map[string]spanTotals)
	// cluster exposes the running cluster (nil before setup built one),
	// which the caller closes; liveRows is how many live rows its workers
	// hold, replicas counted.
	cluster() *cluster
	liveRows() int64
}

type workloadDef struct {
	name string
	why  string
	make func() workload
}

// workloads lists the five in the order a full run executes them. Each why
// is the one-line reason recorded in BENCHMARK.json.
var workloads = []workloadDef{
	{"commit-logless", "optimized 3PC, no WAL: no fsync on the path, so commit latency is pure software (coord, comm, wire, lockmgr, version)",
		func() workload { return &commitWorkload{logged: false} }},
	{"commit-logged", "traditional 2PC with ARIES logging and group commit: wal queueing and forced writes dominate; bypass for logless-path work",
		func() workload { return &commitWorkload{logged: true} }},
	{"scan-agg", "historical full scans, grouped aggregates and narrow range scans over a 4-way partitioned table that fits in the pools",
		func() workload { return &scanWorkload{} }},
	{"mixed-rw", "one committer beside one full scanner on a table four times the buffer pool: reads and writes share buffer, storage and CPU",
		func() workload { return &mixedWorkload{} }},
	{"recover-migrate", "crash, seeded delta, timed RecoverSite under a 1 ms open-loop probe, then Migrate there and back: the transfer engine",
		func() workload { return &recoverWorkload{} }},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// tableModel is the generator's account of one table's live rows: what a
// correct database must hold after the committed operations so far. Only
// the count is read while writers run (the mixed-rw scanner bounds its row
// counts with it), so only the count is atomic.
type tableModel struct {
	ver   map[int64]int64 // key → version of its live row (absent: 0, preloaded)
	count atomic.Int64
	sumF0 int64
}

func newTableModel(rows int64) *tableModel {
	m := &tableModel{ver: map[int64]int64{}}
	m.count.Store(rows)
	for id := int64(0); id < rows; id++ {
		m.sumF0 += payload0(id, 0)
	}
	return m
}

func (m *tableModel) insert(key, ver int64) {
	m.ver[key] = ver
	m.sumF0 += payload0(key, ver)
	m.count.Add(1)
}

func (m *tableModel) update(key, ver int64) {
	m.sumF0 += payload0(key, ver) - payload0(key, m.ver[key])
	m.ver[key] = ver
}

func (m *tableModel) remove(key int64) {
	m.sumF0 -= payload0(key, m.ver[key])
	delete(m.ver, key)
	m.count.Add(-1)
}
