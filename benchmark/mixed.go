package main

import (
	"fmt"
	"time"

	"harbor/internal/coord"
	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

const mixedTable = 1

// scanner is mixed-rw's client B: it loops full historical scans as of the
// high-water mark at each scan's start, beside the running committer.
type scanner struct {
	cl    *cluster
	model *tableModel // the committer's; only its atomic count is read here
	tr    *clientTrace
	ops   int64

	scans     durations // one per correct scan
	rows      int64     // rows those scans returned
	attempted int64
	failed    int64
	checks    int
	checkErr  error
}

// one runs a single scan. The committer is the table's only writer and its
// commit times are sequential, so a scan as of the HWM must see at least
// every row counted before the HWM was read and at most every row counted
// after the scan returned (updates do not change the count).
func (s *scanner) one() {
	s.ops++
	before := s.model.count.Load()
	asOf := s.cl.coord.Authority.HWM()
	var n int64
	var err error
	sp := s.tr.begin("coord.scan_stream", -1, s.ops)
	took := timed(func() {
		err = s.cl.coord.ScanStream(mixedTable, coord.QueryOptions{Historical: true, AsOf: asOf},
			func(rows []tuple.Tuple) error {
				n += int64(len(rows))
				return nil
			})
	})
	s.tr.end(sp)
	// A transaction whose commit returned but which the model has not
	// counted yet may be visible: allow one beyond the later count.
	if after := s.model.count.Load() + 1; err == nil && (n < before || n > after) {
		err = fmt.Errorf("scan as of %d returned %d rows, the model bounds it to [%d,%d]", asOf, n, before, after)
	}
	s.attempted++
	if err != nil {
		s.failed++
		if s.checkErr == nil {
			s.checkErr = err
		}
		return
	}
	s.checks++
	s.scans = append(s.scans, took)
	s.rows += n
}

func (s *scanner) loop(d time.Duration) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		s.one()
	}
}

// mixedWorkload is mixed-rw: two workers, one replicated table four times
// larger than each buffer pool, a committer beside a scanner.
type mixedWorkload struct {
	e       *env
	cl      *cluster
	desc    *tuple.Desc
	writer  *txnClient
	scanner *scanner
}

func (w *mixedWorkload) setup(e *env) error {
	w.e, w.desc = e, benchDesc()
	cl, err := newCluster(clusterConfig{workers: 2, protocol: txn.OptThreePC, mode: worker.HARBOR,
		poolFrames: e.sc.mixedPool, dir: e.dir})
	if err != nil {
		return err
	}
	w.cl = cl
	both := map[int]expr.KeyRange{0: expr.FullKeyRange(), 1: expr.FullKeyRange()}
	if err := cl.createTable(mixedTable, w.desc, 64, both); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := cl.bulkLoad(i, mixedTable, w.desc, 0, e.sc.mixedRows); err != nil {
			return err
		}
	}
	if err := cl.sealLoad(); err != nil {
		return err
	}
	w.writer = newTxnClient(cl, w.desc, mixedTable, e.sc.mixedRows, e, 0)
	w.scanner = &scanner{cl: cl, model: w.writer.model, tr: e.tr.client()}
	// Warm-up: untimed transactions, then one untimed scan (the table does
	// not fit, so this fills the pools rather than making later scans hit).
	for i := 0; i < e.sc.warmTxns; i++ {
		w.writer.one(false)
	}
	warm := &scanner{cl: cl, model: w.writer.model}
	warm.one()
	return warm.checkErr
}

func (w *mixedWorkload) run(d time.Duration, reg *registryWindow) {
	defer reg.open(w.cl)()
	runClients(func() { w.writer.loop(d) }, func() { w.scanner.loop(d) })
}

func (w *mixedWorkload) baselines() error { return nil }

func (w *mixedWorkload) verify() (int, error) {
	if w.scanner.checkErr != nil {
		return 0, w.scanner.checkErr
	}
	m := w.writer.model
	if err := checkReplicas(w.cl, mixedTable, w.desc, []int{0, 1}, m.count.Load(), m.sumF0); err != nil {
		return 0, err
	}
	return 1, nil
}

func (w *mixedWorkload) counts() (attempted, failed int64, checks int) {
	return w.writer.attempted + w.scanner.attempted, w.writer.failed + w.scanner.failed, w.scanner.checks
}

// scanRowsPerS is the mean rows of a scan (the table grows by a row per
// committed transaction) ÷ the median scan's time.
func (w *mixedWorkload) scanRowsPerS() float64 {
	sc := w.scanner
	return scanRowsPerS(sc.rows/int64(max(len(sc.scans), 1)), sc.scans.in(time.Second))
}

// headline: the two streams' rates, the reader's median and the writer's
// tail. The median is the full scan's and not the transaction's, because
// the committer's median is queueing for a processor behind the scanner and
// moved twice as far as the host's speed did between sets of runs (its p95
// and its rate moved less than the host's speed); it is reported as
// commit_p50_us and not gated.
func (w *mixedWorkload) headline() headline {
	tps, lat, _ := commitStats([]*txnClient{w.writer})
	return headline{w.scanRowsPerS(), tps, w.scanner.scans.in(time.Microsecond).quantile(0.5), lat.quantile(tailQ)}
}

func (w *mixedWorkload) endToEnd(r *report) {
	tps, lat, _ := commitStats([]*txnClient{w.writer})
	r.add("commit_tps", "1/s", tps, len(lat))
	r.latency("commit", "us", lat, 0.99)
	r.add("scan_rows_per_s", "1/s", w.scanRowsPerS(), len(w.scanner.scans))
}

func (w *mixedWorkload) layers(r *report, reg *registryWindow, spans map[string]spanTotals) {
	commitLayers(r, spans)
}

func (w *mixedWorkload) cluster() *cluster { return w.cl }

func (w *mixedWorkload) liveRows() int64 { return 2 * w.writer.model.count.Load() }
