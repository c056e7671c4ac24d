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
	"harbor/internal/comm"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/retry"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
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
	// DisablePruning turns off the §4.2 segment-timestamp pruning on every
	// recovery scan, local and remote — the ablation that quantifies what
	// the segment architecture buys (compare Figure 6-5's linear-in-
	// segments cost against scanning the whole table every time).
	DisablePruning bool
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

// noteHotRange records a faulted-in key range for segment prioritization.
// A full-range fault-in carries no locality information and is dropped —
// promote() already handles whole-object priority.
func (r *engine) noteHotRange(table int32, rng expr.KeyRange) {
	if rng == expr.FullKeyRange() {
		return
	}
	r.hotMu.Lock()
	defer r.hotMu.Unlock()
	for _, h := range r.hotRanges[table] {
		if h == rng {
			return
		}
	}
	r.hotRanges[table] = append(r.hotRanges[table], rng)
}

// nextSeg elects the next segment Phase 2 should copy: the first unvisited
// segment a refused read has faulted in, else the first unvisited segment in
// key order. Consulted before every segment copy rather than once per round,
// so a fault-in that arrives mid-round reorders the remainder of the round
// immediately.
func (r *engine) nextSeg(table int32, segs []worker.SegmentStatus, visited []bool) int {
	r.hotMu.Lock()
	hot := append([]expr.KeyRange(nil), r.hotRanges[table]...)
	r.hotMu.Unlock()
	first := -1
	for i := range segs {
		if visited[i] {
			continue
		}
		if first < 0 {
			first = i
		}
		for _, h := range hot {
			if !segs[i].Range.Intersect(h).Empty() {
				return i
			}
		}
	}
	return first
}

// RecoverSite revives every database object on the site, then brings the
// site's global checkpoint forward and re-enables normal checkpointing.
func (r *Recoverer) RecoverSite(opt Options) (*SiteStats, error) {
	opt = opt.withDefaults()
	r.noPrune = opt.DisablePruning
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
		var err error
		var os ObjectStats
		var ft tuple.Timestamp
		for attempt := 0; attempt <= opt.Retries; attempt++ {
			os, ft, err = r.recoverObject(reps[i], opt)
			if err == nil || (!errors.Is(err, errBuddyFailed) &&
				!errors.Is(err, storage.ErrPageCorrupt) &&
				!errors.Is(err, wire.ErrRemoteCorrupt)) {
				break
			}
			// A LOCAL page found corrupt mid-phase was quarantined by the
			// failed read; the retry's Phase 0 scrub repairs it before going
			// again. A REMOTE corrupt page means the buddy tripped its own
			// CRC check serving our scan — that read armed the buddy's
			// background repair-from-buddy, so backing off and retrying
			// meets a healed source. §5.5.2: buddy died; back off, then
			// replan against the remaining replicas (a flapping buddy must
			// not hot-loop us).
			if attempt < opt.Retries {
				opt.RetryBackoff.Sleep(attempt)
			}
		}
		stats.Objects[i] = os
		finalTs[i] = ft
		if err != nil {
			// Whatever phase failed, the object is not servable; the
			// per-object checkpoint file keeps the durable resume point.
			r.Site.SetObjectState(reps[i].Table, worker.ObjNeedsRecovery, 0)
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
		_ = removeIfExists(storage.ObjectCheckpointPath(r.Site.Cfg.Dir, rep.Table))
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
	r.Site.SetObjectState(rep.Table, worker.ObjScrubbing, 0)
	if n, err := r.repairTable(tb, rep, ckpt, survivor); err != nil {
		return st, 0, err
	} else if n > 0 {
		tr.Recordf(traceID, obs.EvRecovery, "phase0 repaired %d quarantined pages table=%d", n, rep.Table)
	}

	// ---- Phase 1: restore local state to the checkpoint (§5.2) ----
	p1 := time.Now()
	del, undel, err := r.phase1(tb, ckpt, opt.DisablePruning, survivor)
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
	r.Site.SetObjectState(rep.Table, worker.ObjHistoricalCopy, ckpt)

	// ---- Phase 2: lock-free historical catch-up (§5.3), per segment ----
	// Each round copies the window (cur, hwm] one segment at a time,
	// flushing and advancing that segment's servable horizon before moving
	// to the next — with faulted-in segments first, the read that is
	// actually waiting serves after a fraction of the table's copy work.
	// Within a round the segments' horizons diverge transiently; the round
	// ends with every segment at hwm, so the resume point (the per-object
	// checkpoint, written once the whole round is durable) stays scalar, and
	// an interrupted round is re-rewound by the next incarnation's Phase 1.
	segs := r.Site.ObjectSegments(rep.Table)
	cur := ckpt
	for round := 0; round < opt.MaxRounds; round++ {
		hwm, err := r.coordinatorHWM()
		if err != nil {
			return st, 0, err
		}
		if hwm <= cur || (round > 0 && hwm-cur <= opt.RepeatThreshold) {
			break
		}
		st.Rounds++
		buddies := 0
		// The next segment is re-elected after every copy, not frozen at
		// round start: a read refused mid-round faults its range in and the
		// very next pick honors it, instead of waiting a whole round.
		visited := make([]bool, len(segs))
		for done := 0; done < len(segs); done++ {
			si := r.nextSeg(rep.Table, segs, visited)
			visited[si] = true
			target := segs[si].Range.Intersect(rep.Range)
			var plan []catalog.RecoverySource
			if !survivor {
				plan, err = r.Cat.RecoveryPlan(rep.Table, target, r.Site.Cfg.Site, r.buddyLiveFor(rep.Table))
				if err != nil {
					return st, 0, err
				}
			}
			buddies += len(plan)
			for _, src := range plan {
				du, di, nDel, nIns, err := r.copyWindow(tb, src, cur, hwm, true, 0)
				st.Phase2Update += du
				st.Phase2Insert += di
				st.Phase2Deletes += nDel
				st.Phase2Inserts += nIns
				reg.Counter("recovery.phase2.tuples").Add(int64(nDel + nIns))
				if err != nil {
					return st, 0, err
				}
			}
			// This segment's window is durably applied: advance its servable
			// horizon independently of the segments still waiting.
			if err := r.flushObject(tb); err != nil {
				return st, 0, err
			}
			r.Site.SetSegmentState(rep.Table, segs[si].Range, worker.ObjHistoricalCopy, hwm)
		}
		reg.Counter("recovery.phase2.rounds").Inc()
		tr.Recordf(traceID, obs.EvRecovery,
			"phase2 round=%d table=%d window=(%d,%d] segments=%d buddies=%d", st.Rounds, rep.Table, cur, hwm, len(segs), buddies)
		// Record the finer-granularity per-object checkpoint (§5.3) only now
		// that every segment of the round is durable — it is the whole
		// object's resume point.
		if err := storage.WriteCheckpointFile(storage.ObjectCheckpointPath(r.Site.Cfg.Dir, rep.Table), hwm); err != nil {
			return st, 0, err
		}
		cur = hwm
	}

	// ---- Phase 3: locked catch-up + join pending transactions (§5.4) ----
	r.Site.SetObjectState(rep.Table, worker.ObjCatchup, cur)
	p3 := time.Now()
	finalT, err := r.phase3(tb, rep, cur, &st, survivor, catchupOpts{
		writeObjCkpt: true,
		mark: func(ct tuple.Timestamp) {
			r.Site.SetObjectState(rep.Table, worker.ObjCatchup, ct)
		},
	})
	if err != nil {
		return st, 0, err
	}
	st.Phase3 = time.Since(p3)
	st.Total = time.Since(t0)
	reg.Counter("recovery.phase3.tuples").Add(int64(st.Phase3Deletes + st.Phase3Inserts))
	reg.Histogram("recovery.phase3.ns").Observe(st.Phase3.Nanoseconds())
	reg.Counter("recovery.objects").Inc()
	// This object is fully caught up and online: Ready, independent of how
	// far the site's other objects are.
	r.Site.SetObjectState(rep.Table, worker.ObjReady, finalT)
	tr.Recordf(traceID, obs.EvRecovery,
		"phase3 done table=%d deletes=%d inserts=%d finalT=%d", rep.Table, st.Phase3Deletes, st.Phase3Inserts, finalT)
	return st, finalT, nil
}

// phase1 runs the two local queries of §5.2. With survivor=true (this site
// is the table's final survivor of a total outage) the committed rewind is
// skipped — every committed stamp postdating the checkpoint is legitimate
// and irreplaceable — and only uncommitted in-flight debris is discarded.
func (r *engine) phase1(tb *storage.Table, ckpt tuple.Timestamp, noPrune, survivor bool) (deleted, undeleted int, err error) {
	heap := tb.Heap
	desc := heap.Desc()
	insOff := desc.Offset(tuple.FieldInsTS)
	delOff := desc.Offset(tuple.FieldDelTS)
	_ = insOff

	// DELETE LOCALLY FROM rec SEE DELETED
	//   WHERE insertion_time > T_checkpoint OR insertion_time = uncommitted
	// (final survivor: WHERE insertion_time = uncommitted only)
	plan := heap.SegmentPlan(nil, &ckpt, nil, true)
	if noPrune {
		plan = heap.AllSegments()
	}
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
	for _, si := range plan {
		for _, pno := range heap.SegmentPages(si) {
			pid := page.ID{Table: heap.TableID(), PageNo: pno}
			f, err := r.Site.Pool.GetPageNoLock(pid)
			if err != nil {
				return deleted, undeleted, err
			}
			f.Latch.Lock()
			dirty := false
			for slot := 0; slot < f.Page.NumSlots(); slot++ {
				if !f.Page.Used(slot) {
					continue
				}
				ins, err2 := f.Page.ReadInt64At(slot, insOff)
				if err2 != nil {
					err = err2
					break
				}
				if ins == tuple.Uncommitted || (!survivor && ins > ckpt) {
					key, err2 := f.Page.ReadInt64At(slot, desc.Offset(desc.Key))
					if err2 != nil {
						err = err2
						break
					}
					if err2 := f.Page.Delete(slot); err2 != nil {
						err = err2
						break
					}
					tb.Index.Remove(key, page.RecordID{Page: pid, Slot: slot})
					r.Site.Store.MarkFreeSlot(pid.Table, pid.PageNo)
					deleted++
					dirty = true
				}
			}
			f.Latch.Unlock()
			r.Site.Pool.Unpin(f, dirty, 0)
			if err != nil {
				return deleted, undeleted, err
			}
		}
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
	plan = heap.SegmentPlan(nil, nil, &ckpt, false)
	if noPrune {
		plan = heap.AllSegments()
	}
	for _, si := range plan {
		for _, pno := range heap.SegmentPages(si) {
			pid := page.ID{Table: heap.TableID(), PageNo: pno}
			f, err := r.Site.Pool.GetPageNoLock(pid)
			if err != nil {
				return deleted, undeleted, err
			}
			f.Latch.Lock()
			dirty := false
			for slot := 0; slot < f.Page.NumSlots(); slot++ {
				if !f.Page.Used(slot) {
					continue
				}
				del, err2 := f.Page.ReadInt64At(slot, delOff)
				if err2 != nil {
					err = err2
					break
				}
				if del > ckpt {
					if err2 := f.Page.WriteInt64At(slot, delOff, tuple.NotDeleted); err2 != nil {
						err = err2
						break
					}
					undeleted++
					dirty = true
				}
			}
			f.Latch.Unlock()
			r.Site.Pool.Unpin(f, dirty, 0)
			if err != nil {
				return deleted, undeleted, err
			}
		}
	}
	return deleted, undeleted, nil
}

// copyWindow copies the changes in (lo, hi] for one recovery source: first
// the deletion timestamps of tuples inserted at or before lo, then the
// tuples inserted inside the window. With historical=true the remote scans
// run as of hi without locks (Phase 2); Phase 3 passes historical=false and
// hi = 0 semantics via unbounded scans (see phase3).
func (r *engine) copyWindow(tb *storage.Table, src catalog.RecoverySource,
	lo, hi tuple.Timestamp, historical bool, lockTxn txn.ID) (durUpd, durIns time.Duration, nDel, nIns int, err error) {
	addr, ok := r.Cat.SiteAddr(src.Buddy)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("core: no address for buddy %d", src.Buddy)
	}
	asOf := tuple.Timestamp(0)
	if historical {
		asOf = hi
	}

	// --- deletions: SELECT REMOTELY tuple_id, deletion_time ... ---
	t0 := time.Now()
	delMsg := &wire.Msg{
		Type: wire.MsgRecoveryScan, Table: src.Table, TS: asOf,
		KeyLo: src.Pred.Lo, KeyHi: src.Pred.Hi,
		Flags: wire.FlagYes | wire.FlagHasInsLE | wire.FlagHasDelGT,
		InsLE: lo, DelGT: lo,
	}
	if r.noPrune {
		delMsg.Flags |= wire.FlagNoPrune
	}
	if historical {
		// (implicit under historical semantics, stated explicitly in §5.3)
		_ = hi
	}
	err = r.streamFrom(addr, delMsg, tb.Heap.Desc(),
		func(keys []int64, dels []tuple.Timestamp) error {
			nDel += len(keys)
			return r.localSetDeletionBatch(tb, keys, dels)
		}, nil)
	durUpd = time.Since(t0)
	if err != nil {
		return durUpd, 0, nDel, nIns, err
	}

	// --- insertions: SELECT REMOTELY * WHERE ins > lo (AND ins <= hi) ---
	t1 := time.Now()
	insMsg := &wire.Msg{
		Type: wire.MsgRecoveryScan, Table: src.Table, TS: asOf,
		KeyLo: src.Pred.Lo, KeyHi: src.Pred.Hi,
		Flags: wire.FlagHasInsGT, InsGT: lo,
	}
	if r.noPrune {
		insMsg.Flags |= wire.FlagNoPrune
	}
	err = r.streamFrom(addr, insMsg, tb.Heap.Desc(), nil,
		func(rows []tuple.Tuple) error {
			nIns += len(rows)
			return r.localInsertBatch(tb, rows)
		})
	durIns = time.Since(t1)
	return durUpd, durIns, nDel, nIns, err
}

// streamFrom runs one remote recovery scan, handing each batch frame to
// onKeys for keys-only (tuple_id, deletion_time) projections or onRows for
// full tuples — which one applies follows the request's FlagYes. Errors are
// classified: transport and malformed-frame failures wrap errBuddyFailed
// (retryable with a different buddy), callback failures wrap errLocalApply
// (the local replica is the problem; replanning would not help), and a
// remote MsgErr passes through unwrapped.
func (r *engine) streamFrom(addr string, req *wire.Msg, desc *tuple.Desc,
	onKeys func(keys []int64, dels []tuple.Timestamp) error,
	onRows func(rows []tuple.Tuple) error) error {
	keysOnly := req.Flags&wire.FlagYes != 0
	c, err := comm.Dial(addr)
	if err != nil {
		return fmt.Errorf("%w: %v", errBuddyFailed, err)
	}
	defer c.Close()
	if err := c.Send(req); err != nil {
		return fmt.Errorf("%w: %v", errBuddyFailed, err)
	}
	b := tuple.NewBatch(wire.BatchTargetRows)
	for {
		m, err := c.Recv()
		if err != nil {
			return fmt.Errorf("%w: %v", errBuddyFailed, err)
		}
		switch m.Type {
		case wire.MsgScanEnd:
			return nil
		case wire.MsgErr:
			return m.Err()
		case wire.MsgTupleBatch: // the only data frame, decoded below
		default:
			return fmt.Errorf("core: unexpected %v in recovery stream", m.Type)
		}
		if keysOnly {
			n, err := wire.CheckBatch(m, wire.KeysOnlyStride)
			if err != nil {
				return fmt.Errorf("%w: %v", errBuddyFailed, err)
			}
			keys := make([]int64, n)
			dels := make([]tuple.Timestamp, n)
			for i := 0; i < n; i++ {
				keys[i], dels[i] = wire.KeyRow(m.Raw, i)
			}
			if err := onKeys(keys, dels); err != nil {
				return fmt.Errorf("%w: %v", errLocalApply, err)
			}
			continue
		}
		if _, err := wire.CheckBatch(m, desc.Width()); err != nil {
			return fmt.Errorf("%w: %v", errBuddyFailed, err)
		}
		b.Reset()
		if err := b.DecodeBatch(desc, m.Raw); err != nil {
			return fmt.Errorf("%w: %v", errBuddyFailed, err)
		}
		if err := onRows(b.Rows()); err != nil {
			return fmt.Errorf("%w: %v", errLocalApply, err)
		}
	}
}

// localSetDeletion applies a copied deletion timestamp:
// UPDATE LOCALLY rec SET deletion_time = del WHERE tuple_id = key AND deletion_time = 0.
func (r *engine) localSetDeletion(tb *storage.Table, key int64, del tuple.Timestamp) error {
	desc := tb.Heap.Desc()
	delOff := desc.Offset(tuple.FieldDelTS)
	for _, rid := range tb.Index.Lookup(key) {
		f, err := r.Site.Pool.GetPageNoLock(rid.Page)
		if err != nil {
			return err
		}
		f.Latch.Lock()
		applied := false
		if f.Page.Used(rid.Slot) {
			cur, err2 := f.Page.ReadInt64At(rid.Slot, delOff)
			if err2 != nil {
				f.Latch.Unlock()
				r.Site.Pool.Unpin(f, false, 0)
				return err2
			}
			if cur == tuple.NotDeleted {
				if err2 := f.Page.WriteInt64At(rid.Slot, delOff, del); err2 != nil {
					f.Latch.Unlock()
					r.Site.Pool.Unpin(f, false, 0)
					return err2
				}
				applied = true
			}
		}
		f.Latch.Unlock()
		r.Site.Pool.Unpin(f, applied, 0)
		if applied {
			tb.Heap.OnCommitStamp(tb.Heap.SegmentFor(rid.Page.PageNo), 0, del)
			return nil
		}
	}
	// No live version found: the tuple may arrive later in the insertion
	// copy already carrying its deletion timestamp; nothing to do.
	return nil
}

// localSetDeletionBatch applies one batch of copied deletion timestamps.
// Keys with a single indexed version — the overwhelming majority — are
// grouped by heap page so each page is pinned and latched once per batch;
// keys with several versions (SEE DELETED history) take the careful
// per-key path.
func (r *engine) localSetDeletionBatch(tb *storage.Table, keys []int64, dels []tuple.Timestamp) error {
	desc := tb.Heap.Desc()
	delOff := desc.Offset(tuple.FieldDelTS)
	type pendingDel struct {
		slot int
		del  tuple.Timestamp
	}
	var byPage map[page.ID][]pendingDel
	for i, key := range keys {
		rids := tb.Index.Lookup(key)
		if len(rids) == 0 {
			// As in localSetDeletion: the tuple may arrive later in the
			// insertion copy already stamped.
			continue
		}
		if len(rids) > 1 {
			if err := r.localSetDeletion(tb, key, dels[i]); err != nil {
				return err
			}
			continue
		}
		if byPage == nil {
			byPage = make(map[page.ID][]pendingDel)
		}
		byPage[rids[0].Page] = append(byPage[rids[0].Page], pendingDel{rids[0].Slot, dels[i]})
	}
	for pid, ps := range byPage {
		f, err := r.Site.Pool.GetPageNoLock(pid)
		if err != nil {
			return err
		}
		f.Latch.Lock()
		dirty := false
		var maxDel tuple.Timestamp
		for _, p := range ps {
			if !f.Page.Used(p.slot) {
				continue
			}
			cur, err2 := f.Page.ReadInt64At(p.slot, delOff)
			if err2 != nil {
				err = err2
				break
			}
			if cur != tuple.NotDeleted {
				continue
			}
			if err2 := f.Page.WriteInt64At(p.slot, delOff, p.del); err2 != nil {
				err = err2
				break
			}
			dirty = true
			if p.del > maxDel {
				maxDel = p.del
			}
		}
		f.Latch.Unlock()
		r.Site.Pool.Unpin(f, dirty, 0)
		if err != nil {
			return err
		}
		if maxDel > 0 {
			tb.Heap.OnCommitStamp(tb.Heap.SegmentFor(pid.PageNo), 0, maxDel)
		}
	}
	return nil
}

// localInsertBatch copies one batch of remote tuples into the local replica
// preserving their timestamps. Each target page is pinned and latched once
// and filled until it rejects a row; index entries and segment timestamp
// bounds are recorded per page after the latch drops, instead of per tuple.
func (r *engine) localInsertBatch(tb *storage.Table, rows []tuple.Tuple) error {
	heap := tb.Heap
	desc := heap.Desc()
	type placedRow struct {
		key      int64
		slot     int
		ins, del tuple.Timestamp
	}
	placed := make([]placedRow, 0, len(rows))
	i := 0
	stall := 0 // consecutive pages that accepted nothing
	for i < len(rows) {
		t := rows[i]
		if len(t.Values) != len(desc.Fields) {
			return fmt.Errorf("core: copied tuple has %d fields, schema %d", len(t.Values), len(desc.Fields))
		}
		pno := heap.InsertHint()
		var seg int32
		if pno < 0 {
			var err error
			pno, seg, err = heap.AllocPage()
			if err != nil {
				return err
			}
		} else {
			seg = heap.SegmentFor(pno)
		}
		pid := page.ID{Table: heap.TableID(), PageNo: pno}
		f, err := r.Site.Pool.GetPageNoLock(pid)
		if err != nil {
			return err
		}
		f.Latch.Lock()
		placed = placed[:0]
		var insErr error
		for i < len(rows) && len(rows[i].Values) == len(desc.Fields) {
			t := rows[i]
			slot, err2 := f.Page.Insert(t.Encode(desc))
			if err2 != nil {
				insErr = err2
				break
			}
			placed = append(placed, placedRow{t.Key(desc), slot, t.InsTS(), t.DelTS()})
			i++
		}
		if insErr == page.ErrPageFull || f.Page.FirstFree() < 0 {
			heap.SetInsertHint(-1)
		} else {
			heap.SetInsertHint(pno)
		}
		f.Latch.Unlock()
		r.Site.Pool.Unpin(f, len(placed) > 0, 0)
		// Index entries and segment bounds: OnCommitStamp only widens
		// min/max, so two calls carry the whole page's insertion range.
		var minIns, maxIns, maxDel tuple.Timestamp
		for _, p := range placed {
			tb.Index.Add(p.key, page.RecordID{Page: pid, Slot: p.slot})
			if p.ins > 0 && p.ins != tuple.Uncommitted {
				if minIns == 0 || p.ins < minIns {
					minIns = p.ins
				}
				if p.ins > maxIns {
					maxIns = p.ins
				}
			}
			if p.del > maxDel {
				maxDel = p.del
			}
		}
		if minIns > 0 {
			heap.OnCommitStamp(seg, minIns, 0)
		}
		if maxIns > 0 || maxDel > 0 {
			heap.OnCommitStamp(seg, maxIns, maxDel)
		}
		if insErr != nil && insErr != page.ErrPageFull {
			return insErr
		}
		if len(placed) == 0 {
			if stall++; stall >= 4 {
				return fmt.Errorf("core: no insertable page for copied tuple")
			}
		} else {
			stall = 0
		}
	}
	return nil
}

// flushObject makes an object's recovered state durable.
func (r *engine) flushObject(tb *storage.Table) error {
	if err := r.Site.Pool.FlushAll(); err != nil {
		return err
	}
	if err := tb.Heap.SyncData(); err != nil {
		return err
	}
	return tb.Heap.FlushMeta()
}

// coordinatorHWM asks the timestamp authority for the high water mark.
func (r *engine) coordinatorHWM() (tuple.Timestamp, error) {
	addr, ok := r.Cat.SiteAddr(r.Cat.Coordinator())
	if !ok {
		return 0, fmt.Errorf("core: coordinator address unknown")
	}
	c, err := comm.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	resp, err := c.Call(&wire.Msg{Type: wire.MsgCurrentTime})
	if err != nil {
		return 0, err
	}
	return resp.TS, nil
}

// buddyObjectReady is the recovery-time failure detector, per object: a
// site is usable as a buddy for one table if its server accepts connections
// AND that table's object is Ready there. The ping reply's per-object list
// makes the distinction — a site still recovering its other objects is a
// legitimate source for the objects whose own catch-up completed, where the
// old whole-site ready flag would have rejected it. A peer that lists no
// objects falls back to the site-level ready flag.
func (r *engine) buddyObjectReady(s catalog.SiteID, table int32) bool {
	if s == r.Site.Cfg.Site {
		return false
	}
	addr, ok := r.Cat.SiteAddr(s)
	if !ok {
		return false
	}
	live, ready, objs := comm.PingObjects(addr, time.Second)
	if !live {
		return false
	}
	for _, o := range objs {
		if o.Table == table {
			return worker.ObjState(o.State) == worker.ObjReady
		}
	}
	return ready
}

// buddyLiveFor refines buddyObjectReady for one object: besides the buddy's
// own readiness claim, a recovery source must still be in the coordinator's
// update set for the table. An evicted-but-reachable buddy (itself crashed
// or partitioned earlier and not yet rejoined) is missing every commit
// since its eviction — seeding catch-up from it would silently lose
// committed data when two replicas are down at once. If the coordinator is
// unreachable the check degrades to ping-only (recovery can still make
// progress; Phase 2's HWM query will fail loudly anyway if the coordinator
// stays gone).
func (r *engine) buddyLiveFor(table int32) func(catalog.SiteID) bool {
	return func(s catalog.SiteID) bool {
		if !r.buddyObjectReady(s, table) {
			return false
		}
		online, err := r.objectOnlineAt(s, table)
		if err != nil {
			return true
		}
		return online
	}
}

// selfIsFinalSurvivor asks the coordinator whether this site is the
// table's final survivor — the last replica out of the update set while no
// replica is online (§5.5 total outage). Errors degrade to false, leaving
// the normal buddy planning (and its K-safety refusal) in charge.
func (r *engine) selfIsFinalSurvivor(table int32) bool {
	addr, ok := r.Cat.SiteAddr(r.Cat.Coordinator())
	if !ok {
		return false
	}
	c, err := comm.Dial(addr)
	if err != nil {
		return false
	}
	defer c.Close()
	resp, err := c.Call(&wire.Msg{Type: wire.MsgObjectStatus, Site: int32(r.Site.Cfg.Site), Table: table})
	if err != nil {
		return false
	}
	return resp.Type == wire.MsgOK && resp.Flags&wire.FlagSurvivor != 0
}

// objectOnlineAt asks the coordinator whether a site's replica of a table
// participates in updates.
func (r *engine) objectOnlineAt(site catalog.SiteID, table int32) (bool, error) {
	addr, ok := r.Cat.SiteAddr(r.Cat.Coordinator())
	if !ok {
		return false, fmt.Errorf("core: coordinator address unknown")
	}
	c, err := comm.Dial(addr)
	if err != nil {
		return false, err
	}
	defer c.Close()
	resp, err := c.Call(&wire.Msg{Type: wire.MsgObjectStatus, Site: int32(site), Table: table})
	if err != nil {
		return false, err
	}
	return resp.Type == wire.MsgOK && resp.Flags&wire.FlagYes != 0, nil
}

func removeIfExists(path string) error {
	err := osRemove(path)
	if err != nil && !errorsIsNotExist(err) {
		return err
	}
	return nil
}
