package main

import (
	"fmt"
	"time"

	"harbor/internal/coord"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// The scan-agg query cycle, fixed so every commit runs the same mix.
const (
	aggsPerCycle   = 4
	rangesPerCycle = 16
	scanWorkers    = 4
	scanTable      = 1
)

// expected holds the answers every scan-agg query must return, computed
// from the generator alone.
type expected struct {
	rows      int64
	sumF0     int64
	prefix    []int64 // prefix[i] = Σ payload0(id, 0) for id < i
	groupCnt  [groups]int64
	groupSum  [groups]int64
	rangeKeys int64 // keys per narrow range scan: 1% of the key space
}

func newExpected(rows int64) *expected {
	x := &expected{rows: rows, prefix: make([]int64, rows+1), rangeKeys: rows / 100}
	for id := int64(0); id < rows; id++ {
		v := payload0(id, 0)
		x.prefix[id+1] = x.prefix[id] + v
		x.groupCnt[id%groups]++
		x.groupSum[id%groups] += v
	}
	x.sumF0 = x.prefix[rows]
	return x
}

// queryClient is one closed-loop read client of scan-agg. All reads are
// historical as of the load time, so they take no locks.
type queryClient struct {
	cl   *cluster
	desc *tuple.Desc
	f0   int
	x    *expected
	r    *rng
	tr   *clientTrace
	ops  int64

	full, agg, rng durations // one per correct query of each kind
	attempted      int64
	failed         int64
	checks         int
	checkErr       error
}

func (q *queryClient) opt() coord.QueryOptions {
	return coord.QueryOptions{Historical: true, AsOf: loadTS}
}

// record counts one query and, if it failed or returned a wrong answer,
// remembers the first such error.
func (q *queryClient) record(err error) bool {
	q.attempted++
	if err != nil {
		q.failed++
		if q.checkErr == nil {
			q.checkErr = err
		}
		return false
	}
	q.checks++
	return true
}

// scan streams one query under a span, timed, and returns its row count and
// f0 sum.
func (q *queryClient) scan(span string, opt coord.QueryOptions) (took time.Duration, n, sum int64, err error) {
	s := q.tr.begin(span, -1, q.ops)
	took = timed(func() {
		err = q.cl.coord.ScanStream(scanTable, opt, func(rows []tuple.Tuple) error {
			n += int64(len(rows))
			for _, t := range rows {
				sum += t.Values[q.f0].I64
			}
			return nil
		})
	})
	q.tr.end(s)
	return took, n, sum, err
}

func (q *queryClient) fullScan() {
	q.ops++
	took, n, sum, err := q.scan("coord.scan_stream", q.opt())
	if err == nil && (n != q.x.rows || sum != q.x.sumF0) {
		err = fmt.Errorf("full scan returned %d rows summing %d, want %d summing %d", n, sum, q.x.rows, q.x.sumF0)
	}
	if q.record(err) {
		q.full = append(q.full, took)
	}
}

func (q *queryClient) aggregate() {
	q.ops++
	plan := exec.AggPlan{GroupField: q.desc.FieldIndex("g"), Aggs: []exec.AggSpec{
		{Fn: exec.Count}, {Fn: exec.Sum, Field: q.f0}}}
	var out []tuple.Tuple
	var err error
	s := q.tr.begin("coord.aggregate", -1, q.ops)
	took := timed(func() { out, err = q.cl.coord.Aggregate(scanTable, q.opt(), plan) })
	q.tr.end(s)
	if err == nil {
		err = q.checkGroups(out)
	}
	if q.record(err) {
		q.agg = append(q.agg, took)
	}
}

func (q *queryClient) checkGroups(out []tuple.Tuple) error {
	want := groups
	if q.x.rows < groups {
		want = int(q.x.rows)
	}
	if len(out) != want {
		return fmt.Errorf("aggregate returned %d groups, want %d", len(out), want)
	}
	for _, t := range out {
		g, cnt, sum := t.Values[0].I64, t.Values[1].I64, t.Values[2].I64
		if g < 0 || g >= groups {
			return fmt.Errorf("aggregate returned group %d, outside [0,%d)", g, groups)
		}
		if cnt != q.x.groupCnt[g] || sum != q.x.groupSum[g] {
			return fmt.Errorf("aggregate group %d is (count %d, sum %d), want (%d, %d)",
				g, cnt, sum, q.x.groupCnt[g], q.x.groupSum[g])
		}
	}
	return nil
}

// nextRange draws the next narrow range at a seeded offset.
func (q *queryClient) nextRange() expr.KeyRange {
	lo := q.r.intn(q.x.rows - q.x.rangeKeys + 1)
	return expr.KeyRange{Lo: lo, Hi: lo + q.x.rangeKeys}
}

func (q *queryClient) rangeScan() {
	q.ops++
	rng := q.nextRange()
	opt := q.opt()
	opt.Pred = rng.Pred(q.desc)
	took, n, sum, err := q.scan("coord.range_scan", opt)
	if err == nil {
		err = q.x.checkRange(rng, n, sum)
	}
	if q.record(err) {
		q.rng = append(q.rng, took)
	}
}

func (x *expected) checkRange(rng expr.KeyRange, n, sum int64) error {
	if want := x.prefix[rng.Hi] - x.prefix[rng.Lo]; n != rng.Hi-rng.Lo || sum != want {
		return fmt.Errorf("range scan [%d,%d) returned %d rows summing %d, want %d summing %d",
			rng.Lo, rng.Hi, n, sum, rng.Hi-rng.Lo, want)
	}
	return nil
}

// loop runs whole cycles until d has passed; the deadline is checked
// between queries so a window never overruns by more than one query.
func (q *queryClient) loop(d time.Duration) {
	deadline := time.Now().Add(d)
	for {
		steps := []func(){q.fullScan}
		for i := 0; i < aggsPerCycle; i++ {
			steps = append(steps, q.aggregate)
		}
		for i := 0; i < rangesPerCycle; i++ {
			steps = append(steps, q.rangeScan)
		}
		for _, step := range steps {
			if !time.Now().Before(deadline) {
				return
			}
			step()
		}
	}
}

// scanWorkload is scan-agg: four workers, one table range-partitioned four
// ways that fits in the buffer pools, two query clients.
type scanWorkload struct {
	e       *env
	cl      *cluster
	desc    *tuple.Desc
	x       *expected
	clients []*queryClient

	// traced-pass baselines against the workers directly
	directRows int64
}

// partition returns worker i's key range: [i·q, (i+1)·q) with the outer
// bounds unbounded so the partitions cover the key space.
func partition(i int, rows int64) (lo, hi int64, rng expr.KeyRange) {
	q := rows / scanWorkers
	lo, hi = int64(i)*q, int64(i+1)*q
	if i == scanWorkers-1 {
		hi = rows
	}
	rng = expr.KeyRange{Lo: lo, Hi: hi}
	if i == 0 {
		rng.Lo = expr.FullKeyRange().Lo
	}
	if i == scanWorkers-1 {
		rng.Hi = expr.FullKeyRange().Hi
	}
	return lo, hi, rng
}

func (w *scanWorkload) setup(e *env) error {
	w.e, w.desc = e, benchDesc()
	cl, err := newCluster(clusterConfig{workers: scanWorkers, protocol: txn.OptThreePC,
		mode: worker.HARBOR, poolFrames: e.sc.scanPool, dir: e.dir})
	if err != nil {
		return err
	}
	w.cl = cl
	placement := map[int]expr.KeyRange{}
	for i := 0; i < scanWorkers; i++ {
		_, _, placement[i] = partition(i, e.sc.scanRows)
	}
	if err := cl.createTable(scanTable, w.desc, 64, placement); err != nil {
		return err
	}
	for i := 0; i < scanWorkers; i++ {
		lo, hi, _ := partition(i, e.sc.scanRows)
		if err := cl.bulkLoad(i, scanTable, w.desc, lo, hi); err != nil {
			return err
		}
	}
	if err := cl.sealLoad(); err != nil {
		return err
	}
	w.x = newExpected(e.sc.scanRows)
	for c := 0; c < maxClients; c++ {
		w.clients = append(w.clients, &queryClient{cl: cl, desc: w.desc, f0: w.desc.FieldIndex("f0"),
			x: w.x, r: newRng(e.seed, c), tr: e.tr.client()})
	}
	// Warm-up: one untimed query of each kind pulls every page through the
	// buffer pools and opens the pooled connections.
	warm := &queryClient{cl: cl, desc: w.desc, f0: w.desc.FieldIndex("f0"), x: w.x, r: newRng(e.seed, maxClients)}
	warm.fullScan()
	warm.aggregate()
	warm.rangeScan()
	return warm.checkErr
}

func (w *scanWorkload) run(d time.Duration, reg *registryWindow) {
	defer reg.open(w.cl)()
	fns := make([]func(), len(w.clients))
	for i, c := range w.clients {
		fns[i] = func() { c.loop(d) }
	}
	runClients(fns...)
}

// baselines drains every partition straight from its worker, and reads
// narrow ranges straight from the worker that owns them: what the same
// reads cost without the coordinator's fan-out, decode and merge.
func (w *scanWorkload) baselines() error {
	r := newRng(w.e.seed, maxClients+1)
	tr := w.e.tr.client()
	for i := 0; i < scanWorkers; i++ {
		sc, err := dialSite(w.cl.workers[i].Addr())
		if err != nil {
			return err
		}
		_, _, rng := partition(i, w.x.rows)
		s := tr.begin("worker.direct_scan", -1, int64(i))
		n, err := sc.scan(scanTable, exec.Historical, loadTS, rng, w.desc, nil)
		tr.end(s)
		w.directRows += n
		if err == nil {
			// Narrow ranges inside this worker's partition.
			lo, hi, _ := partition(i, w.x.rows)
			for k := 0; k < rangesPerCycle && err == nil; k++ {
				rlo := lo + r.intn(hi-lo-w.x.rangeKeys+1)
				rr := expr.KeyRange{Lo: rlo, Hi: rlo + w.x.rangeKeys}
				s := tr.begin("worker.direct_range_scan", -1, int64(i))
				var got int64
				got, err = sc.scan(scanTable, exec.Historical, loadTS, rr, w.desc, nil)
				tr.end(s)
				if err == nil && got != w.x.rangeKeys {
					err = fmt.Errorf("direct range scan on worker %d returned %d rows, want %d", i, got, w.x.rangeKeys)
				}
			}
		}
		sc.close()
		if err != nil {
			return err
		}
	}
	if w.directRows != w.x.rows {
		return fmt.Errorf("direct scans returned %d rows, want %d", w.directRows, w.x.rows)
	}
	return nil
}

// verify: scan-agg never writes, so the end-of-workload check is that every
// partition still holds exactly its generated rows.
func (w *scanWorkload) verify() (int, error) {
	for _, c := range w.clients {
		if c.checkErr != nil {
			return 0, c.checkErr
		}
	}
	var count, sum int64
	for i := 0; i < scanWorkers; i++ {
		_, _, rng := partition(i, w.x.rows)
		vs, err := dumpReplica(w.cl, i, scanTable, w.desc, w.cl.coord.Authority.HWM(), rng)
		if err != nil {
			return 0, err
		}
		c, s := liveTotals(vs)
		if int64(len(vs)) != c {
			return 0, fmt.Errorf("worker %d holds %d deleted versions in a read-only workload", i, int64(len(vs))-c)
		}
		count += c
		sum += s
	}
	if count != w.x.rows || sum != w.x.sumF0 {
		return 0, fmt.Errorf("partitions hold %d rows summing %d, want %d summing %d", count, sum, w.x.rows, w.x.sumF0)
	}
	return 1, nil
}

func (w *scanWorkload) counts() (attempted, failed int64, checks int) {
	for _, c := range w.clients {
		attempted += c.attempted
		failed += c.failed
		checks += c.checks
	}
	return
}

// scanStats pools the clients' samples, one set per kind of query.
func (w *scanWorkload) scanStats() (full, agg, rng durations) {
	for _, c := range w.clients {
		full, agg, rng = append(full, c.full...), append(agg, c.agg...), append(rng, c.rng...)
	}
	return full, agg, rng
}

// scanRowsPerS is rows read ÷ the median query's time: the rate of one
// client's stream while the other client runs its own.
func scanRowsPerS(rows int64, scanS samples) float64 {
	return ratio(float64(rows), scanS.quantile(0.5))
}

// headline: the bulk work is rows streamed by full scans, the second rows
// aggregated (worker-side exec without shipping), each the table's rows ÷
// the median query's time; the latency-critical operation is the narrow
// range scan (per-query fixed cost).
func (w *scanWorkload) headline() headline {
	full, agg, rng := w.scanStats()
	r := rng.in(time.Microsecond)
	return headline{scanRowsPerS(w.x.rows, full.in(time.Second)), scanRowsPerS(w.x.rows, agg.in(time.Second)),
		r.quantile(0.5), r.quantile(tailQ)}
}

func (w *scanWorkload) endToEnd(r *report) {
	full, agg, rng := w.scanStats()
	r.add("scan_rows_per_s", "1/s", scanRowsPerS(w.x.rows, full.in(time.Second)), len(full))
	r.latency("range_scan", "us", rng.in(time.Microsecond), 0.99)
	r.latency("agg", "ms", agg.in(time.Millisecond), 0.95)
}

func (w *scanWorkload) layers(r *report, reg *registryWindow, spans map[string]spanTotals) {
	scanLayers(r, spans, w)
}

func (w *scanWorkload) cluster() *cluster { return w.cl }

func (w *scanWorkload) liveRows() int64 { return w.x.rows }
