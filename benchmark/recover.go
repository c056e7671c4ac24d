package main

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

const (
	recoverTable = 1
	deltaPerTxn  = 100 // delta operations per transaction
	probeTick    = time.Millisecond
	probeGiveUp  = 30 * time.Second
)

// recoverWorkload is recover-migrate: three workers, one table replicated
// on workers 0 and 1, worker 2 empty. Each cycle crashes worker 0, commits
// a seeded delta it misses, restarts it and times RecoverSite under an
// open-loop probe, then migrates one segment from worker 1 to worker 2 and
// back.
type recoverWorkload struct {
	e     *env
	cl    *cluster
	desc  *tuple.Desc
	f0    int
	model *tableModel
	r     *rng
	ops   int64   // version counter for rows the delta writes
	fresh int64   // next never-used key
	last  []int64 // keys the previous cycle inserted; this cycle deletes them
	hot   expr.KeyRange
	seg   expr.KeyRange // the segment that migrates there and back
	tr    *clientTrace  // the cycle driver's spans
	ptr   *clientTrace  // the probe's: it runs beside the driver

	catchup, firstRead, migrated durations // one per RecoverSite / Migrate
	caughtUp                     []float64 // tuples each RecoverSite brought up to date
	probeUS                      samples
	probesLate                   int64
	objects                      []core.ObjectStats

	attempted, failed int64
	checks            int
	err               error // first failed operation or check
}

func (w *recoverWorkload) setup(e *env) error {
	w.e, w.desc = e, benchDesc()
	w.f0 = w.desc.FieldIndex("f0")
	cl, err := newCluster(clusterConfig{workers: 3, protocol: txn.OptThreePC, mode: worker.HARBOR,
		poolFrames: e.sc.recoverPool, dir: e.dir})
	if err != nil {
		return err
	}
	w.cl = cl
	rows := e.sc.recoverRows
	both := map[int]expr.KeyRange{0: expr.FullKeyRange(), 1: expr.FullKeyRange()}
	if err := cl.createTable(recoverTable, w.desc, 64, both); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := cl.bulkLoad(i, recoverTable, w.desc, 0, rows); err != nil {
			return err
		}
	}
	if err := cl.sealLoad(); err != nil {
		return err
	}
	w.model = newTableModel(rows)
	w.r = newRng(e.seed, 0)
	w.fresh = rows
	w.hot = expr.KeyRange{Lo: rows / 4, Hi: rows/4 + e.sc.hotKeys}
	w.seg = expr.KeyRange{Lo: rows / 2, Hi: rows/2 + rows/8}
	w.tr, w.ptr = e.tr.client(), e.tr.client()
	// Warm-up: one full scan opens the coordinator's pooled connections and
	// fills the pools of the two replicas.
	n := int64(0)
	err = cl.coord.ScanStream(recoverTable, coord.QueryOptions{Historical: true, AsOf: loadTS},
		func(b []tuple.Tuple) error { n += int64(len(b)); return nil })
	if err == nil && n != rows {
		err = fmt.Errorf("warm-up scan returned %d rows, want %d", n, rows)
	}
	return err
}

// cyclesPerSecond sizes recover-migrate's run. It executes a fixed number
// of cycles, so that every commit's medians stand on the same number of
// RecoverSites and Migrates however fast it is; one cycle took about
// 1/cyclesPerSecond seconds on the commit that defined the benchmark.
const cyclesPerSecond = 1.0

// run executes the cycles a window of d holds at cyclesPerSecond, at least
// one. A failed operation or check ends the run: the later cycles would
// only measure the damage.
func (w *recoverWorkload) run(d time.Duration, reg *registryWindow) {
	for n := max(1, int(d.Seconds()*cyclesPerSecond)); w.err == nil && n > 0; n-- {
		w.err = w.cycle(reg)
	}
}

func (w *recoverWorkload) cycle(reg *registryWindow) error {
	cl := w.cl
	for i, s := range cl.workers {
		if err := s.CheckpointNow(); err != nil {
			return fmt.Errorf("checkpointing worker %d: %w", i, err)
		}
	}
	cl.workers[0].Crash()
	if err := w.applyDelta(); err != nil {
		return err
	}
	// The post-delta high-water mark: servable at the recovering site only
	// once the hot segment's missed window has been copied.
	asOf := cl.coord.Authority.HWM()
	site, err := cl.openWorker(0)
	if err != nil {
		return err
	}
	closeWindow := reg.open(cl)
	defer closeWindow()

	if err := w.recoverUnderProbe(site, asOf); err != nil {
		return err
	}
	if err := w.sameDigest(asOf, expr.FullKeyRange(), 0, 1); err != nil {
		return fmt.Errorf("after RecoverSite: %w", err)
	}
	// Worker 1 → worker 2, then back.
	for _, hop := range [][2]int{{1, 2}, {2, 1}} {
		if err := w.migrate(hop[0], hop[1]); err != nil {
			return err
		}
	}
	return nil
}

// deltaOp is one operation of the delta a cycle commits while worker 0 is
// down.
type deltaOp struct {
	kind     byte // 'd' delete, 'u' update, 'i' insert
	key, ver int64
}

// applyDelta commits the cycle's seeded delta through the coordinator:
// deletes of the previous cycle's inserts, updates of seeded preloaded keys
// and as many fresh inserts, so the live row count stays constant from the
// second cycle on. Untimed; multi-row transactions.
func (w *recoverWorkload) applyDelta() error {
	n := w.e.sc.delta
	var ops []deltaOp
	for _, k := range w.last {
		ops = append(ops, deltaOp{kind: 'd', key: k})
	}
	seen := map[int64]bool{}
	for len(seen) < n {
		k := w.r.intn(w.e.sc.recoverRows)
		if seen[k] {
			continue
		}
		seen[k] = true
		w.ops++
		ops = append(ops, deltaOp{kind: 'u', key: k, ver: w.ops})
	}
	w.last = w.last[:0]
	for i := 0; i < n; i++ {
		w.ops++
		ops = append(ops, deltaOp{kind: 'i', key: w.fresh, ver: w.ops})
		w.last = append(w.last, w.fresh)
		w.fresh++
	}
	for lo := 0; lo < len(ops); lo += deltaPerTxn {
		batch := ops[lo:min(lo+deltaPerTxn, len(ops))]
		w.attempted++
		if err := w.commitDelta(batch); err != nil {
			w.failed++
			return fmt.Errorf("delta transaction: %w", err)
		}
	}
	return nil
}

func (w *recoverWorkload) commitDelta(batch []deltaOp) error {
	tx := w.cl.coord.Begin()
	var err error
	for _, op := range batch {
		switch op.kind {
		case 'd':
			err = tx.DeleteKey(recoverTable, op.key)
		case 'u':
			err = tx.UpdateKey(recoverTable, op.key, makeRow(w.desc, op.key, op.ver))
		case 'i':
			err = tx.Insert(recoverTable, makeRow(w.desc, op.key, op.ver))
		}
		if err != nil {
			_ = tx.Abort() // the failure is what is reported
			return err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	for _, op := range batch {
		switch op.kind {
		case 'd':
			w.model.remove(op.key)
		case 'u':
			w.model.update(op.key, op.ver)
		case 'i':
			w.model.insert(op.key, op.ver)
		}
	}
	return nil
}

// hotSum is the f0 sum a correct read of the hot range returns now.
func (w *recoverWorkload) hotSum() int64 {
	var sum int64
	for k := w.hot.Lo; k < w.hot.Hi; k++ {
		sum += payload0(k, w.model.ver[k])
	}
	return sum
}

// probeResult is what one cycle's probe saw.
type probeResult struct {
	latUS     samples
	late      int64
	firstRead time.Duration
	err       error
}

// recoverUnderProbe times RecoverSite on the restarted site while a second
// client reads the hot range from that site on a fixed 1 ms schedule.
func (w *recoverWorkload) recoverUnderProbe(site *worker.Site, asOf tuple.Timestamp) error {
	wantSum := w.hotSum()
	// Prime the hot range: this read is refused, and the refusal is
	// buffered by the site and replayed when RecoverSite attaches its
	// fault-in hook, so the first scheduling decision already knows which
	// segment the waiting reader wants.
	sc, err := dialSite(site.Addr())
	if err != nil {
		return err
	}
	defer sc.close()
	if _, _, err := w.readHot(sc, asOf); !errors.Is(err, errRefused) {
		return fmt.Errorf("hot range readable as of %d before recovery ran (err: %v)", asOf, err)
	}

	var pr probeResult
	var stats *core.SiteStats
	var rerr error
	var took time.Duration
	var recovered atomic.Bool
	t0 := time.Now()
	runClients(
		func() {
			s := w.tr.begin("core.recover_site", -1, w.ops)
			stats, rerr = core.New(site, w.cl.cat).RecoverSite(core.Options{Parallel: true, Concurrency: 1, SegmentShards: 8})
			took = time.Since(t0)
			w.tr.end(s)
			recovered.Store(true)
		},
		func() { pr = w.probe(sc, asOf, wantSum, t0, &recovered) },
	)
	w.attempted++
	if rerr != nil {
		w.failed++
		return fmt.Errorf("RecoverSite: %w", rerr)
	}
	if pr.err != nil {
		return pr.err
	}
	w.checks++ // every served probe read matched the generator
	w.catchup = append(w.catchup, took)
	w.firstRead = append(w.firstRead, pr.firstRead)
	w.probeUS = append(w.probeUS, pr.latUS...)
	w.probesLate += pr.late
	caughtUp := 0
	for _, o := range stats.Objects {
		caughtUp += o.Phase2Deletes + o.Phase2Inserts + o.Phase3Deletes + o.Phase3Inserts
		w.objects = append(w.objects, o)
	}
	w.caughtUp = append(w.caughtUp, float64(caughtUp))
	return nil
}

// readHot reads the hot range from one site as of asOf and returns the row
// count and f0 sum.
func (w *recoverWorkload) readHot(sc *siteConn, asOf tuple.Timestamp) (n, sum int64, err error) {
	b := tuple.NewBatch(256)
	var derr error
	n, err = sc.scan(recoverTable, exec.Historical, asOf, w.hot, w.desc, func(raw []byte) {
		b.Reset()
		if err := b.DecodeBatch(w.desc, raw); err != nil {
			derr = err
			return
		}
		for _, t := range b.Rows() {
			sum += t.Values[w.f0].I64
		}
	})
	if err == nil {
		err = derr
	}
	return n, sum, err
}

// probe is the open-loop reader: read i is due at t0 + i·1ms whatever
// happened to the reads before it, and its latency runs from when it was
// due. While the site refuses, due reads accumulate; the read that is
// finally served completes all of them. It runs until RecoverSite has
// returned and at least one read was served.
func (w *recoverWorkload) probe(sc *siteConn, asOf tuple.Timestamp, wantSum int64, t0 time.Time, recovered *atomic.Bool) probeResult {
	var pr probeResult
	next := int64(0) // first read not yet completed
	for {
		now := time.Since(t0)
		if recovered.Load() && pr.firstRead > 0 {
			return pr
		}
		if now > probeGiveUp {
			pr.err = fmt.Errorf("no hot-range read was served within %v of restart", probeGiveUp)
			return pr
		}
		if due := time.Duration(next) * probeTick; now < due {
			time.Sleep(due - now)
			continue
		}
		issued := time.Since(t0)
		s := w.ptr.begin("worker.probe_read", -1, next)
		n, sum, err := w.readHot(sc, asOf)
		w.ptr.end(s)
		done := time.Since(t0)
		if errors.Is(err, errRefused) {
			// Nothing can serve yet: wait for the next tick.
			time.Sleep((done/probeTick+1)*probeTick - done)
			continue
		}
		if err == nil && (n != w.hot.Hi-w.hot.Lo || sum != wantSum) {
			err = fmt.Errorf("hot-range read as of %d returned %d rows summing %d, want %d summing %d",
				asOf, n, sum, w.hot.Hi-w.hot.Lo, wantSum)
		}
		if err != nil {
			pr.err = err
			return pr
		}
		if pr.firstRead == 0 {
			pr.firstRead = done
		}
		for last := int64(issued / probeTick); next <= last; next++ {
			due := time.Duration(next) * probeTick
			pr.latUS = append(pr.latUS, float64((done-due).Nanoseconds())/1e3)
			if issued-due > probeTick {
				pr.late++
			}
		}
	}
}

// sameDigest requires workers a and b to agree on the digest of rng as of
// asOf.
func (w *recoverWorkload) sameDigest(asOf tuple.Timestamp, rng expr.KeyRange, a, b int) error {
	var ds [2][]int64
	for i, wi := range []int{a, b} {
		sc, err := dialSite(w.cl.workers[wi].Addr())
		if err != nil {
			return err
		}
		ds[i], err = sc.digest(recoverTable, asOf, rng, w.desc)
		sc.close()
		if err != nil {
			return fmt.Errorf("digest of worker %d: %w", wi, err)
		}
	}
	if !slices.Equal(ds[0], ds[1]) {
		return fmt.Errorf("workers %d and %d differ on [%d,%d) as of %d", a, b, rng.Lo, rng.Hi, asOf)
	}
	w.checks++
	return nil
}

// migrate moves the segment from worker `from` to worker `to`, timed, and
// checks the outcome: the target equals worker 0 (which holds every key)
// on the segment, the donor holds none of it any more, and the catalog
// assigns the segment to the target and not to the donor.
func (w *recoverWorkload) migrate(from, to int) error {
	var err error
	s := w.tr.begin("core.migrate", -1, w.ops)
	took := timed(func() {
		_, err = core.Migrate(w.cl.workers[to], w.cl.cat, core.MigrateSpec{
			Table: recoverTable, Range: w.seg, DropFrom: siteID(from), SegPages: 64,
		}, core.Options{Parallel: true})
	})
	w.tr.end(s)
	w.attempted++
	if err != nil {
		w.failed++
		return fmt.Errorf("Migrate worker %d → %d: %w", from, to, err)
	}
	w.migrated = append(w.migrated, took)

	asOf := w.cl.coord.Authority.HWM()
	if err := w.sameDigest(asOf, w.seg, to, 0); err != nil {
		return fmt.Errorf("after Migrate %d → %d: %w", from, to, err)
	}
	left, err := dumpReplica(w.cl, from, recoverTable, w.desc, asOf, w.seg)
	if err != nil {
		// The donor refuses reads of a range it gave away; that is the
		// purge marker doing its job.
		if !errors.Is(err, errRefused) {
			return err
		}
	} else if len(left) != 0 {
		return fmt.Errorf("after Migrate %d → %d: donor still holds %d versions of the segment", from, to, len(left))
	}
	holders := 0
	for _, rep := range w.cl.cat.Replicas(recoverTable) {
		if rep.Site == siteID(0) || rep.Range.Intersect(w.seg).Empty() {
			continue
		}
		if rep.Site != siteID(to) || rep.Range != w.seg {
			return fmt.Errorf("after Migrate %d → %d: site %d holds [%d,%d) of the segment", from, to, rep.Site, rep.Range.Lo, rep.Range.Hi)
		}
		holders++
	}
	if holders != 1 {
		return fmt.Errorf("after Migrate %d → %d: %d placements besides worker 0's hold the segment, want 1", from, to, holders)
	}
	w.checks++
	return nil
}

func (w *recoverWorkload) baselines() error { return nil }

// verify compares the two full replicas version by version, and both with
// the generator's model.
func (w *recoverWorkload) verify() (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if err := checkReplicas(w.cl, recoverTable, w.desc, []int{0, 1}, w.model.count.Load(), w.model.sumF0); err != nil {
		return 0, err
	}
	return 1, nil
}

func (w *recoverWorkload) counts() (attempted, failed int64, checks int) {
	return w.attempted, w.failed, w.checks
}

// headline: the bulk work is tuples RecoverSite brought up to date per
// second of catch-up (median over cycles), the second the segment's rows ÷
// the median Migrate's time; the latency-critical operation is the probe's
// hot-range read, timed from when it was due, over every read due between a
// restart and the end of that recovery (its median is a read served beside
// a running recovery, its p95 a read that waited for the hot segment).
func (w *recoverWorkload) headline() headline {
	probe := w.probeUS.sorted()
	return headline{w.catchupRate(), scanRowsPerS(w.seg.Hi-w.seg.Lo, w.migrated.in(time.Second)),
		probe.quantile(0.5), probe.quantile(tailQ)}
}

// catchupRate is the median over cycles of tuples brought up to date ÷
// RecoverSite's time.
func (w *recoverWorkload) catchupRate() float64 {
	rates := make([]float64, len(w.catchup))
	for i, t := range w.catchup {
		rates[i] = w.caughtUp[i] / t.Seconds()
	}
	return median(rates)
}

func (w *recoverWorkload) endToEnd(r *report) {
	n := len(w.catchup)
	r.add("recover_catchup_ms", "ms", w.catchup.in(time.Millisecond).quantile(0.5), n)
	r.add("first_read_ms", "ms", w.firstRead.in(time.Millisecond).quantile(0.5), n)
	r.add("migrate_ms_per_range", "ms", w.migrated.in(time.Millisecond).quantile(0.5), len(w.migrated))
	r.add("recover_tuples_per_s", "1/s", w.catchupRate(), n)
	r.latency("probe_read", "us", w.probeUS, tailQ)
	r.add("probe.late_share", "ratio", ratio(float64(w.probesLate), float64(len(w.probeUS))), len(w.probeUS))
}

func (w *recoverWorkload) layers(r *report, reg *registryWindow, spans map[string]spanTotals) {
	coreLayers(r, reg, w)
}

func (w *recoverWorkload) cluster() *cluster { return w.cl }

func (w *recoverWorkload) liveRows() int64 { return 2 * w.model.count.Load() }
