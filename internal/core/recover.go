// Package core implements HARBOR's recovery algorithm (Chapter 5 of the
// thesis) — the primary contribution of the paper. A crashed worker site
// revives each of its database objects in three phases:
//
//	Phase 1  restore local state to the last checkpoint: physically delete
//	         every tuple inserted after the checkpoint or left uncommitted,
//	         and undelete every tuple deleted after the checkpoint (§5.2);
//	Phase 2  catch up to a recent high water mark by running lock-free
//	         SEE DELETED HISTORICAL queries against remote recovery buddies,
//	         copying missing deletion timestamps and missing tuples (§5.3);
//	Phase 3  catch up to the current time under table-granularity read
//	         locks on the recovery objects, then join pending transactions
//	         through the coordinator and come online (§5.4).
//
// Objects (and whole sites) recover in parallel, each at its own pace, with
// per-object checkpoints so that failures during recovery resume instead of
// restarting (§5.3, §5.5). Buddy failures trigger a replan against the
// remaining replicas (§5.5.2).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/retry"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/vfs"
	"harbor/internal/worker"
)

// ObjectStats decomposes one object's recovery (Figure 6-6).
type ObjectStats struct {
	Table int32

	Phase1Deleted   int // tuples physically removed in Phase 1
	Phase1Undeleted int // deletion stamps reverted in Phase 1
	Phase2Deletes   int // deletion timestamps copied in Phase 2
	Phase2Inserts   int // tuples copied in Phase 2
	Phase3Deletes   int
	Phase3Inserts   int
	Rounds          int // Phase 2 repetitions

	Phase1       time.Duration
	Phase2Update time.Duration // Phase 2's SELECT + UPDATE (deletions)
	Phase2Insert time.Duration // Phase 2's SELECT + INSERT (insertions)
	Phase3       time.Duration
	Total        time.Duration
}

// SiteStats aggregates a site's recovery.
type SiteStats struct {
	Objects []ObjectStats
	Total   time.Duration
}

// Options tune the recovery run.
type Options struct {
	// Parallel recovers objects concurrently (§5.1); serial otherwise.
	Parallel bool
	// Concurrency bounds the number of objects recovering at once when
	// Parallel is set (0 = min(4, object count)). Objects beyond the bound
	// wait in the priority queue, where a fault-in can still reorder them.
	Concurrency int
	// RepeatThreshold re-runs Phase 2 while the coordinator's HWM has
	// advanced by more than this many timestamps since the last round
	// (§5.3). Zero uses a sensible default.
	RepeatThreshold int64
	// MaxRounds bounds Phase 2 repetitions.
	MaxRounds int
	// Retries bounds whole-object restarts after buddy failures (§5.5.2).
	Retries int
	// RetryBackoff paces the §5.5.2 replan-retries: capped, jittered
	// exponential sleeps between attempts so a flapping buddy doesn't turn
	// the loop into a hot spin. Zero uses a sensible default; set Base < 0
	// via a custom Backoff to disable (tests).
	RetryBackoff *retry.Backoff
	// SegmentShards is how many key-range segments each object's recovery
	// state is tracked at (boundaries are quantiles of the object's local
	// key distribution). More shards means a faulted-in hot range becomes
	// servable after copying less of its table; each shard costs one extra
	// flush per Phase 2 round. 0 uses a sensible default.
	SegmentShards int
}

func (o Options) withDefaults() Options {
	if o.RepeatThreshold == 0 {
		o.RepeatThreshold = 64
	}
	if o.SegmentShards == 0 {
		o.SegmentShards = 8
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 4
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.RetryBackoff == nil {
		o.RetryBackoff = &retry.Backoff{Base: 25 * time.Millisecond, Max: 400 * time.Millisecond}
	}
	return o
}

// Recoverer drives HARBOR recovery for one rebooted worker site. It is one
// of the two callers of the segment-transfer engine (see transfer.go); the
// other is Migrate. All transfer-level machinery — window copies, remote
// streams, buddy liveness, locked catch-up — lives on the embedded engine
// and is shared verbatim between the two.
type Recoverer struct {
	*engine
}

// New builds a Recoverer.
func New(site *worker.Site, cat *catalog.Catalog) *Recoverer {
	return &Recoverer{engine: newEngine(site, cat)}
}

// RecoverSite revives every database object on the site, then brings the
// site's global checkpoint forward and re-enables normal checkpointing.
func (r *Recoverer) RecoverSite(opt Options) (*SiteStats, error) {
	opt = opt.withDefaults()
	start := time.Now()
	r.Site.PauseCheckpoints() // §5.2: disable scheduled checkpoints
	defer r.Site.ResumeCheckpoints()

	// The objects to recover are this site's replicas per the catalog;
	// local tables missing entirely (disk wiped) are created empty.
	reps := r.Cat.ReplicasOn(r.Site.Cfg.Site)
	if len(reps) == 0 {
		r.Site.SetRecovered() // nothing replicated here; trivially caught up
		return &SiteStats{Total: time.Since(start)}, nil
	}
	for _, rep := range reps {
		if !r.Site.Mgr.Has(rep.Table) {
			spec, ok := r.Cat.Table(rep.Table)
			if !ok {
				return nil, fmt.Errorf("core: replica of unknown table %d", rep.Table)
			}
			segPages := rep.SegPages
			if segPages == 0 {
				segPages = spec.SegPages
			}
			if err := r.Site.CreateTable(rep.Table, spec.Desc, segPages); err != nil {
				return nil, err
			}
		}
	}

	// Demote every replica object before touching any: whatever this
	// incarnation held, it is about to be rewound, and reads must not land
	// on a half-rewound object. Each object transitions forward through the
	// state machine independently as its own recovery progresses, becoming
	// servable again the moment its history covers the read — not when the
	// last object catches up. Demotion also carves each object into
	// key-range segments at quantiles of its local key distribution:
	// Phase 2 advances the segments independently, so a faulted-in hot
	// range serves after copying only its own shard of the table.
	for _, rep := range reps {
		var bounds []int64
		if tb, err := r.Site.Mgr.Get(rep.Table); err == nil {
			bounds = tb.Index.Quantiles(opt.SegmentShards)
		}
		r.Site.SetObjectSegments(rep.Table, bounds, worker.ObjNeedsRecovery, 0)
	}

	// Placement hygiene for a crashed donor: a range that migrated away
	// while this site was down (or whose post-move purge never ran) leaves
	// rows the catalog no longer assigns here, and recovery would revive
	// them into reads. Purge everything outside the union of this site's
	// replica ranges per table. With full coverage — the common case — the
	// complement is empty and nothing is touched.
	heldByTable := map[int32][]expr.KeyRange{}
	for _, rep := range reps {
		heldByTable[rep.Table] = append(heldByTable[rep.Table], rep.Range)
	}
	for table, held := range heldByTable {
		for _, gap := range uncoveredRanges(expr.FullKeyRange(), held) {
			if _, err := r.Site.PurgeRange(table, gap); err != nil {
				return nil, err
			}
			r.Site.MarkRangePurged(table, gap)
		}
	}

	stats := &SiteStats{Objects: make([]ObjectStats, len(reps))}
	finalTs := make([]tuple.Timestamp, len(reps))
	runOne := func(i int) error {
		err := withRetries(opt, func() error {
			var err error
			stats.Objects[i], finalTs[i], err = r.recoverObject(reps[i], opt)
			return err
		})
		if err != nil {
			// Whatever phase failed, the object is not servable; the
			// per-object checkpoint file keeps the durable resume point.
			r.Site.CarveSegmentState(reps[i].Table, expr.FullKeyRange(), worker.ObjNeedsRecovery, 0)
		}
		return err
	}

	// Objects recover through a priority queue, hottest first: the per-table
	// read counters say which objects queries actually touch, and recovering
	// those first minimizes time-to-first-query. An incoming query or
	// recovery scan that lands on a still-queued object promotes it to the
	// front via the site's fault-in hook.
	sched := newObjSched(reps, r.Site.Obs())
	r.Site.SetFaultInHook(func(table int32, rng expr.KeyRange) {
		r.noteHotRange(table, rng)
		sched.promote(table)
	})
	defer r.Site.SetFaultInHook(nil)

	workers := 1
	if opt.Parallel {
		workers = opt.Concurrency
		if workers <= 0 {
			workers = 4
		}
		if workers > len(reps) {
			workers = len(reps)
		}
	}
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := sched.next()
				if !ok {
					return
				}
				errs[i] = runOne(i)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// Partial failure: objects that DID complete stay Ready and keep
		// serving — per-object recovery means one unreachable buddy no
		// longer takes the whole site's progress down with it. The joined
		// error reports every failed object, not just the first.
		return nil, err
	}

	// All objects online: resume the single global checkpoint (§5.3) at
	// the minimum of the per-object checkpoints, then drop the per-object
	// files.
	minT := finalTs[0]
	for _, t := range finalTs[1:] {
		if t < minT {
			minT = t
		}
	}
	r.Site.SeedAppliedTS(minT)
	if err := storage.WriteCheckpointFile(storage.CheckpointPath(r.Site.Cfg.Dir), minT); err != nil {
		return nil, err
	}
	for _, rep := range reps {
		// Best effort: a file left behind still names a flushed horizon of
		// its object, so a later recovery may start from it.
		_ = vfs.Remove(storage.ObjectCheckpointPath(r.Site.Cfg.Dir, rep.Table))
	}
	// Every replica is caught up through its recovery HWM: the site is a
	// legitimate recovery source again (ready flag on pings, recovery scans
	// served).
	r.Site.SetRecovered()
	stats.Total = time.Since(start)
	return stats, nil
}

// objSched is the per-object recovery queue: replica indices ordered by
// read hotness (the worker.table.reads{table=N} counters), popped by the
// recovery workers, with promote() moving a still-queued object to the
// front when a query faults it in.
type objSched struct {
	mu      sync.Mutex
	pending []int         // rep indices awaiting recovery, front = next
	idxOf   map[int32]int // table -> rep index
}

func newObjSched(reps []catalog.Replica, reg *obs.Registry) *objSched {
	hot := func(table int32) int64 {
		return reg.Counter(obs.Name("worker.table.reads", "table", strconv.Itoa(int(table)))).Load()
	}
	s := &objSched{
		pending: make([]int, len(reps)),
		idxOf:   make(map[int32]int, len(reps)),
	}
	for i, rep := range reps {
		s.pending[i] = i
		s.idxOf[rep.Table] = i
	}
	sort.SliceStable(s.pending, func(a, b int) bool {
		return hot(reps[s.pending[a]].Table) > hot(reps[s.pending[b]].Table)
	})
	return s
}

// next pops the highest-priority pending object (false when drained).
func (s *objSched) next() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return 0, false
	}
	i := s.pending[0]
	s.pending = s.pending[1:]
	return i, true
}

// promote moves table's object to the front of the queue if it is still
// pending (no-op once recovery of the object has started or finished).
func (s *objSched) promote(table int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	want, ok := s.idxOf[table]
	if !ok {
		return
	}
	for j, i := range s.pending {
		if i == want {
			copy(s.pending[1:j+1], s.pending[:j])
			s.pending[0] = i
			return
		}
	}
}

// errBuddyFailed marks a recovery-buddy connection failure (§5.5.2). It is
// the retryable class: RecoverSite replans against the remaining replicas.
var errBuddyFailed = errors.New("core: recovery buddy failed")

// errLocalApply marks a failure applying copied state to the local replica
// (page I/O, schema mismatch, full heap). Unlike errBuddyFailed it must NOT
// trigger a buddy replan — the buddy sent good data and a different buddy
// would fail the same way. The recovery run aborts instead.
var errLocalApply = errors.New("core: local apply failed during recovery")

// recoverObject runs the three phases for one replica. Progress is mirrored
// into the site's metrics registry (recovery.* counters) and its tracer: the
// whole object recovery runs under one trace id from the reserved recovery
// band, so `?txn=<id>` on /debug/harbor replays the phase timeline.
func (r *Recoverer) recoverObject(rep catalog.Replica, opt Options) (ObjectStats, tuple.Timestamp, error) {
	st := ObjectStats{Table: rep.Table}
	t0 := time.Now()
	reg, tr := r.Site.Obs(), r.Site.Trace()
	traceID := int64(r.ids.Next())
	tr.Recordf(traceID, obs.EvRecovery, "start table=%d", rep.Table)
	tb, err := r.Site.Mgr.Get(rep.Table)
	if err != nil {
		return st, 0, err
	}
	full := expr.FullKeyRange()

	// The starting checkpoint: the newer of the global site checkpoint and
	// this object's recovery checkpoint (§5.3's finer-granularity rule).
	ckpt, err := storage.ReadCheckpointFile(storage.CheckpointPath(r.Site.Cfg.Dir))
	if err != nil {
		return st, 0, err
	}
	if objCkpt, err := storage.ReadCheckpointFile(storage.ObjectCheckpointPath(r.Site.Cfg.Dir, rep.Table)); err == nil && objCkpt > ckpt {
		ckpt = objCkpt
	}

	// §5.5 total outage: when every replica of the table left the update
	// set, the coordinator names the last one out the "final survivor" —
	// commits need a live replica, so none can postdate its departure and
	// its local state is complete. If that is us, rewinding to the
	// checkpoint would destroy committed tuples no buddy can restore:
	// Phase 1 instead only discards uncommitted debris, and Phases 2–3 run
	// against an empty buddy plan (there is nothing newer to fetch).
	survivor := r.selfIsFinalSurvivor(rep.Table)

	// ---- Phase 0: scrub quarantined pages (torn-page repair) ----
	// Pages whose CRC trailer failed verification are restored from a buddy
	// before Phase 1 touches them, capped at the checkpoint: Phase 1's
	// rewind and Phase 2's window copy rebuild everything newer anyway.
	r.Site.CarveSegmentState(rep.Table, full, worker.ObjScrubbing, 0)
	if n, err := r.repairTable(tb, rep, ckpt, survivor); err != nil {
		return st, 0, err
	} else if n > 0 {
		tr.Recordf(traceID, obs.EvRecovery, "phase0 repaired %d quarantined pages table=%d", n, rep.Table)
	}

	// ---- Phase 1: restore local state to the checkpoint (§5.2) ----
	p1 := time.Now()
	del, undel, err := r.phase1(tb, ckpt, survivor)
	if err != nil {
		return st, 0, err
	}
	st.Phase1Deleted, st.Phase1Undeleted = del, undel
	st.Phase1 = time.Since(p1)
	reg.Counter("recovery.phase1.deleted").Add(int64(del))
	reg.Counter("recovery.phase1.undeleted").Add(int64(undel))
	reg.Histogram("recovery.phase1.ns").Observe(st.Phase1.Nanoseconds())
	tr.Recordf(traceID, obs.EvRecovery,
		"phase1 done table=%d deleted=%d undeleted=%d survivor=%v", rep.Table, del, undel, survivor)

	// The rewound object IS the historical snapshot at its checkpoint:
	// everything Phase 2/3 adds from here carries an insertion (or
	// deletion) time above the copied horizon, so historical reads asOf ≤
	// copiedThrough are byte-correct from this point on and the object
	// starts serving them (time-to-first-query), long before full catch-up.
	r.Site.CarveSegmentState(rep.Table, full, worker.ObjHistoricalCopy, ckpt)

	// ---- Phases 2 and 3 (§5.3, §5.4), one quantile shard at a time ----
	var segs []expr.KeyRange
	for _, s := range r.Site.ObjectSegments(rep.Table) {
		segs = append(segs, s.Range)
	}
	finalT, err := r.transfer(tb, rep, transferSpec{
		whole: full, segs: segs, from: ckpt, survivor: survivor, writeObjCkpt: true,
	}, opt, &st, traceID)
	reg.Counter("recovery.phase2.tuples").Add(int64(st.Phase2Deletes + st.Phase2Inserts))
	reg.Counter("recovery.phase2.rounds").Add(int64(st.Rounds))
	if err != nil {
		return st, 0, err
	}
	st.Total = time.Since(t0)
	reg.Counter("recovery.phase3.tuples").Add(int64(st.Phase3Deletes + st.Phase3Inserts))
	reg.Histogram("recovery.phase3.ns").Observe(st.Phase3.Nanoseconds())
	reg.Counter("recovery.objects").Inc()
	tr.Recordf(traceID, obs.EvRecovery,
		"phase3 done table=%d deletes=%d inserts=%d finalT=%d", rep.Table, st.Phase3Deletes, st.Phase3Inserts, finalT)
	return st, finalT, nil
}

// phase1 runs the two local queries of §5.2. With survivor=true (this site
// is the table's final survivor of a total outage) the committed rewind is
// skipped — every committed stamp postdating the checkpoint is legitimate
// and irreplaceable — and only uncommitted in-flight debris is discarded.
func (r *Recoverer) phase1(tb *storage.Table, ckpt tuple.Timestamp, survivor bool) (deleted, undeleted int, err error) {
	heap := tb.Heap
	desc := heap.Desc()
	insOff := desc.Offset(tuple.FieldInsTS)
	delOff := desc.Offset(tuple.FieldDelTS)
	keyOff := desc.Offset(desc.Key)

	// DELETE LOCALLY FROM rec SEE DELETED
	//   WHERE insertion_time > T_checkpoint OR insertion_time = uncommitted
	// (final survivor: WHERE insertion_time = uncommitted only)
	plan := heap.SegmentPlan(nil, &ckpt, nil, true)
	if survivor {
		// Only segments that may hold uncommitted tuples matter.
		plan = nil
		if mu := heap.MinUncommittedSeg(); mu >= 0 {
			for _, si := range heap.AllSegments() {
				if si >= mu {
					plan = append(plan, si)
				}
			}
		}
	}
	err = r.visitSlots(heap, plan, func(pid page.ID, p *page.Page, slot int) (bool, error) {
		ins, err := p.ReadInt64At(slot, insOff)
		if err != nil || (ins != tuple.Uncommitted && (survivor || ins <= ckpt)) {
			return false, err
		}
		key, err := p.ReadInt64At(slot, keyOff)
		if err != nil {
			return false, err
		}
		if err := p.Delete(slot); err != nil {
			return false, err
		}
		tb.Index.Remove(key, page.RecordID{Page: pid, Slot: slot})
		r.Site.Store.MarkFreeSlot(pid.Table, pid.PageNo)
		deleted++
		return true, nil
	})
	if err != nil {
		return deleted, undeleted, err
	}
	heap.ClearUncommittedBound()

	if survivor {
		// Deletions are intent-only until commit stamps them, so every
		// on-page deletion timestamp is committed — and for the final
		// survivor, legitimate. Nothing to revert.
		return deleted, undeleted, nil
	}

	// UPDATE LOCALLY rec SET deletion_time = 0 SEE DELETED
	//   WHERE deletion_time > T_checkpoint
	err = r.visitSlots(heap, heap.SegmentPlan(nil, nil, &ckpt, false), func(_ page.ID, p *page.Page, slot int) (bool, error) {
		del, err := p.ReadInt64At(slot, delOff)
		if err != nil || del <= ckpt {
			return false, err
		}
		if err := p.WriteInt64At(slot, delOff, tuple.NotDeleted); err != nil {
			return false, err
		}
		undeleted++
		return true, nil
	})
	return deleted, undeleted, err
}

// visitSlots hands every used slot of the planned segments' pages to visit,
// pinning and latching each page once; visit reports whether it modified
// the page. The first error stops the walk.
func (r *Recoverer) visitSlots(heap *storage.HeapFile, plan []int32, visit func(pid page.ID, p *page.Page, slot int) (bool, error)) error {
	for _, si := range plan {
		for _, pno := range heap.SegmentPages(si) {
			pid := page.ID{Table: heap.TableID(), PageNo: pno}
			f, err := r.Site.Pool.GetPageNoLock(pid)
			if err != nil {
				return err
			}
			f.Latch.Lock()
			dirty := false
			for slot := 0; slot < f.Page.NumSlots() && err == nil; slot++ {
				if f.Page.Used(slot) {
					var changed bool
					changed, err = visit(pid, f.Page, slot)
					dirty = dirty || changed
				}
			}
			f.Latch.Unlock()
			r.Site.Pool.Unpin(f, dirty, 0)
			if err != nil {
				return err
			}
		}
	}
	return nil
}
