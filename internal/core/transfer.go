// The segment-transfer engine: HARBOR's Phase 2/3 catch-up machinery
// factored out of "this site crashed". The primitive it implements is
// "copy a consistent, timestamped key range from a live buddy without
// blocking writers": a historical SEE DELETED window copy (lock-free,
// Phase 2) followed by a locked catch-up that drains the stragglers and
// fixes a final consistent time (Phase 3). One driver, engine.transfer,
// runs both phases; two callers choose what it moves (transferSpec):
//
//	Recoverer.RecoverSite — crash recovery (recover.go): rewinds each object
//	    to its checkpoint, then transfers the object's quantile shards;
//	Migrate — online data movement (migrate.go): node join and segment
//	    split/rebalance stream a key range onto a live or cold site while
//	    the cluster serves, then flip catalog placement atomically under
//	    the donor table locks.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// engine holds the transfer-level state shared by every caller: the target
// site the data lands on, the catalog the source plans come from, and the
// fault-in hot ranges that order segment copies. It is deliberately
// unexported — callers construct a Recoverer (crash recovery) or call
// Migrate/Join (data movement); the engine is the mechanism, not the policy.
type engine struct {
	Site *worker.Site
	Cat  *catalog.Catalog

	ids *txn.IDSource

	// hotRanges records, per table, the key ranges refused reads faulted in
	// (fed by the site's fault-in hook). Phase 2 copies the segments those
	// ranges intersect first, so the read that is actually waiting becomes
	// servable again after copying a fraction of its table.
	hotMu     sync.Mutex
	hotRanges map[int32][]expr.KeyRange
}

// newEngine builds a transfer engine targeting one site.
func newEngine(site *worker.Site, cat *catalog.Catalog) *engine {
	return &engine{Site: site, Cat: cat,
		ids:       txn.NewIDSource(int32(site.Cfg.Site) + 1<<20),
		hotRanges: map[int32][]expr.KeyRange{}}
}

// transferSpec is what differs between the two callers of transfer.
type transferSpec struct {
	// whole is the range the transfer makes servable: the full key range
	// for crash recovery, the moved range for migration.
	whole expr.KeyRange
	// segs are the key-range segments Phase 2 copies and advances one at a
	// time: the object's quantile shards for crash recovery, the moved
	// range for migration.
	segs []expr.KeyRange
	// from is the horizon the local copy already covers: the rewound
	// checkpoint for crash recovery, 0 for migration (copy all history).
	from tuple.Timestamp
	// survivor marks this site as the table's final survivor of a total
	// outage (§5.5): there is no buddy and nothing newer to fetch.
	survivor bool
	// writeObjCkpt records the per-object recovery checkpoint after every
	// round and at the final time. Crash recovery wants this (it is the
	// object's resume point); migration must NOT — the object checkpoint
	// speaks for the whole object, and a migration (even of a full range,
	// as Join does) only guarantees the transferred range.
	writeObjCkpt bool
	// underLock, if set, runs while the donor table locks are still held,
	// after the locked copy is durable and before the object-online
	// announce. Migration flips catalog placement here so no commit can
	// slip between the copied horizon and the new routing.
	underLock func() error
}

// withRetries runs attempt until it succeeds, fails in a way no replan can
// fix, or opt.Retries retries are spent, backing off between attempts so a
// flapping buddy does not hot-loop the caller (§5.5.2). Retryable: a buddy
// died (replan against the remaining replicas); a LOCAL page was found
// corrupt mid-phase (the failed read quarantined it, and a recovery retry's
// Phase 0 scrub repairs it); a REMOTE page was corrupt (the buddy tripped
// its own CRC check serving our scan, which armed its background repair, so
// backing off meets a healed source).
func withRetries(opt Options, attempt func() error) error {
	var err error
	for i := 0; i <= opt.Retries; i++ {
		err = attempt()
		if err == nil || (!errors.Is(err, errBuddyFailed) &&
			!errors.Is(err, storage.ErrPageCorrupt) &&
			!errors.Is(err, wire.ErrRemoteCorrupt)) {
			return err
		}
		if i < opt.Retries {
			opt.RetryBackoff.Sleep(i)
		}
	}
	return err
}

// transfer copies rep's key range onto the site and returns its final
// consistent time, leaving spec.whole Ready.
//
// Phase 2 (§5.3) is lock-free and historical: each round copies the window
// (cur, hwm] one segment at a time, flushing and advancing that segment's
// servable horizon before moving to the next — with faulted-in segments
// first, the read that is actually waiting serves after a fraction of the
// copy work. Within a round the segments' horizons diverge transiently;
// the round ends with every segment at hwm, so the resume point (the
// per-object checkpoint, written once the whole round is durable) stays
// scalar, and an interrupted round is re-rewound by the next recovery's
// Phase 1. Rounds repeat while the coordinator's HWM keeps moving by more
// than opt.RepeatThreshold. Phase 3 (§5.4) then drains the rest under
// table locks.
func (r *engine) transfer(tb *storage.Table, rep catalog.Replica, spec transferSpec, opt Options, st *ObjectStats, traceID int64) (tuple.Timestamp, error) {
	cur := spec.from
	for round := 0; round < opt.MaxRounds; round++ {
		hwm, err := r.coordinatorHWM()
		if err != nil {
			return 0, err
		}
		if hwm <= cur || (round > 0 && hwm-cur <= opt.RepeatThreshold) {
			break
		}
		st.Rounds++
		sources := 0
		// The next segment is re-elected after every copy, not frozen at
		// round start: a read refused mid-round faults its range in and the
		// very next pick honors it, instead of waiting a whole round.
		visited := make([]bool, len(spec.segs))
		for range spec.segs {
			si := r.nextSeg(rep.Table, spec.segs, visited)
			visited[si] = true
			var plan []catalog.RecoverySource
			if !spec.survivor {
				plan, err = r.Cat.RecoveryPlan(rep.Table, spec.segs[si].Intersect(rep.Range), r.Site.Cfg.Site, r.buddyLiveFor(rep.Table))
				if err != nil {
					return 0, err
				}
			}
			sources += len(plan)
			for _, src := range plan {
				du, di, nDel, nIns, err := r.copyWindow(tb, src, cur, hwm)
				st.Phase2Update += du
				st.Phase2Insert += di
				st.Phase2Deletes += nDel
				st.Phase2Inserts += nIns
				if err != nil {
					return 0, err
				}
			}
			// This segment's window is durably applied: advance its servable
			// horizon independently of the segments still waiting.
			if err := r.flushObject(tb); err != nil {
				return 0, err
			}
			r.Site.CarveSegmentState(rep.Table, spec.segs[si], worker.ObjHistoricalCopy, hwm)
		}
		r.Site.Trace().Recordf(traceID, obs.EvRecovery,
			"phase2 round=%d table=%d window=(%d,%d] segments=%d sources=%d",
			st.Rounds, rep.Table, cur, hwm, len(spec.segs), sources)
		if spec.writeObjCkpt {
			if err := storage.WriteCheckpointFile(storage.ObjectCheckpointPath(r.Site.Cfg.Dir, rep.Table), hwm); err != nil {
				return 0, err
			}
		}
		cur = hwm
	}

	r.Site.CarveSegmentState(rep.Table, spec.whole, worker.ObjCatchup, cur)
	p3 := time.Now()
	finalT, err := r.phase3(tb, rep, cur, st, spec)
	if err != nil {
		return 0, err
	}
	st.Phase3 = time.Since(p3)
	r.Site.CarveSegmentState(rep.Table, spec.whole, worker.ObjReady, finalT)
	return finalT, nil
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
func (r *engine) nextSeg(table int32, segs []expr.KeyRange, visited []bool) int {
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
			if !segs[i].Intersect(h).Empty() {
				return i
			}
		}
	}
	return first
}

// phase3 runs §5.4: acquire table-granularity read locks on every recovery
// object at once, copy the remaining committed changes with ordinary
// (non-historical) SEE DELETED queries, announce "rec coming online" to the
// coordinator so pending transactions are joined (Figure 5-4), then release
// the remote locks. It returns the object's final consistent time.
func (r *engine) phase3(tb *storage.Table, rep catalog.Replica, hwm tuple.Timestamp, st *ObjectStats, spec transferSpec) (tuple.Timestamp, error) {
	recTxn := r.ids.Next()

	// Recompute the plan against currently-live buddies. The final
	// survivor of a total outage has no buddies and nothing to fetch — it
	// proceeds straight to the §5.4.2 join with an empty plan.
	var plan []catalog.RecoverySource
	if !spec.survivor {
		var err error
		plan, err = r.Cat.RecoveryPlan(rep.Table, rep.Range, r.Site.Cfg.Site, r.buddyLiveFor(rep.Table))
		if err != nil {
			return 0, err
		}
	}

	// ACQUIRE REMOTELY READ LOCK ON recovery_object — all of them, retrying
	// on deadlock timeouts until every lock is granted (§5.4.1).
	conns := make([]*comm.Conn, 0, len(plan))
	release := func() {
		for i, c := range conns {
			if c == nil {
				continue
			}
			_, _ = c.Call(&wire.Msg{Type: wire.MsgUnlockTable, Txn: recTxn, Table: plan[i].Table})
			_, _ = c.Call(&wire.Msg{Type: wire.MsgEndRead, Txn: recTxn})
			c.Close()
		}
		conns = nil
	}
	for attempt := 0; ; attempt++ {
		ok := true
		for _, src := range plan {
			addr, found := r.Cat.SiteAddr(src.Buddy)
			if !found {
				release()
				return 0, fmt.Errorf("core: no address for buddy %d", src.Buddy)
			}
			c, err := comm.Dial(addr)
			if err != nil {
				release()
				return 0, fmt.Errorf("%w: %v", errBuddyFailed, err)
			}
			if err := c.Send(&wire.Msg{Type: wire.MsgLockTable, Txn: recTxn, Table: src.Table}); err != nil {
				c.Close()
				release()
				return 0, fmt.Errorf("%w: %v", errBuddyFailed, err)
			}
			resp, err := c.Recv()
			if err != nil {
				c.Close()
				release()
				return 0, fmt.Errorf("%w: %v", errBuddyFailed, err)
			}
			if resp.Type != wire.MsgOK {
				// Lock timeout (possible deadlock, §5.4.1): drop every lock
				// acquired so far, back off, and retry the whole set. "Site
				// S retries until it succeeds in acquiring all of the
				// locks."
				c.Close()
				ok = false
				break
			}
			conns = append(conns, c)
		}
		if ok {
			break
		}
		release()
		if attempt > 50 {
			return 0, fmt.Errorf("core: could not acquire recovery locks for table %d", rep.Table)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer release()

	// Copy deletions after the HWM, then insertions after the HWM, with
	// plain (locked-world) SEE DELETED scans. The uncommitted-insertion
	// exclusion of §5.4.1 is enforced by the scan's visibility mode.
	for _, src := range plan {
		_, _, nDel, nIns, err := r.copyWindow(tb, src, hwm, 0)
		st.Phase3Deletes += nDel
		st.Phase3Inserts += nIns
		if err != nil {
			return 0, err
		}
	}

	// The object now reflects every committed change; fix its final time
	// while the locks still exclude new rec-affecting commits.
	finalT, err := r.coordinatorHWM()
	if err != nil {
		return 0, err
	}
	if err := r.flushObject(tb); err != nil {
		return 0, err
	}
	if spec.writeObjCkpt {
		if err := storage.WriteCheckpointFile(storage.ObjectCheckpointPath(r.Site.Cfg.Dir, rep.Table), finalT); err != nil {
			return 0, err
		}
	}

	// The locked copy has drained and is durable: every segment's contents
	// now equal a healthy replica's at finalT, and the buddy table locks
	// still exclude new commits to this table. Advance the horizon to
	// finalT while still in Catchup — from here the worker serves not just
	// covered historical reads but *current* reads whose
	// coordinator-assigned start timestamp is ≤ finalT, shaving the
	// object-online round trip off current-read MTTR.
	r.Site.CarveSegmentState(rep.Table, spec.whole, worker.ObjCatchup, finalT)

	// Migration flips placement here, while the donor table locks still
	// exclude commits: a transaction that committed before the flip never
	// needed this replica, one that commits after it sees the new placement
	// (directly in its update set or via the object-online replay below).
	if spec.underLock != nil {
		if err := spec.underLock(); err != nil {
			return 0, err
		}
	}

	// Figure 5-4: announce to the coordinator; it replays the queued
	// update requests of every relevant pending transaction into this
	// worker's server, then answers "all done".
	resp, err := call(r.Cat, r.Cat.Coordinator(), &wire.Msg{
		Type: wire.MsgObjectOnline, Site: int32(r.Site.Cfg.Site), Table: rep.Table,
	})
	if err != nil {
		return 0, err
	}
	if resp.Type != wire.MsgAllDone {
		return 0, fmt.Errorf("core: coordinator answered %v to object-online", resp.Type)
	}

	// RELEASE REMOTELY LOCK ... — the deferred release() does it; rec on S
	// is then fully online (§5.4.2).
	return finalT, nil
}

// copyWindow copies the changes after lo for one recovery source: first
// the deletion timestamps of tuples inserted at or before lo, then the
// tuples inserted after lo. With asOf > 0 the remote scans run
// historically as of asOf without locks, so the window is (lo, asOf]
// (Phase 2); asOf = 0 runs them as plain SEE DELETED scans under the
// Phase 3 table locks.
func (r *engine) copyWindow(tb *storage.Table, src catalog.RecoverySource,
	lo, asOf tuple.Timestamp) (durUpd, durIns time.Duration, nDel, nIns int, err error) {
	addr, ok := r.Cat.SiteAddr(src.Buddy)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("core: no address for buddy %d", src.Buddy)
	}

	// --- deletions: SELECT REMOTELY tuple_id, deletion_time ... ---
	t0 := time.Now()
	err = r.streamFrom(addr, &wire.Msg{
		Type: wire.MsgRecoveryScan, Table: src.Table, TS: asOf,
		KeyLo: src.Pred.Lo, KeyHi: src.Pred.Hi,
		Flags: wire.FlagYes | wire.FlagHasInsLE | wire.FlagHasDelGT,
		InsLE: lo, DelGT: lo,
	}, tb.Heap.Desc(),
		func(keys []int64, dels []tuple.Timestamp) error {
			nDel += len(keys)
			return r.localSetDeletionBatch(tb, keys, dels)
		}, nil)
	durUpd = time.Since(t0)
	if err != nil {
		return durUpd, 0, nDel, nIns, err
	}

	// --- insertions: SELECT REMOTELY * WHERE ins > lo (AND ins <= asOf) ---
	t1 := time.Now()
	err = r.streamFrom(addr, &wire.Msg{
		Type: wire.MsgRecoveryScan, Table: src.Table, TS: asOf,
		KeyLo: src.Pred.Lo, KeyHi: src.Pred.Hi,
		Flags: wire.FlagHasInsGT, InsGT: lo,
	}, tb.Heap.Desc(), nil,
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

// placedRow is one copied tuple just written to a page, remembered so its
// index entry and segment timestamp bounds can be recorded after the page
// latch drops.
type placedRow struct {
	key      int64
	slot     int
	ins, del tuple.Timestamp
}

// notePlaced records the index entries and segment timestamp bounds of the
// rows just written to one page. OnCommitStamp only widens min/max, so two
// calls carry the whole page's insertion range.
func notePlaced(tb *storage.Table, seg int32, pid page.ID, placed []placedRow) {
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
		tb.Heap.OnCommitStamp(seg, minIns, 0)
	}
	if maxIns > 0 || maxDel > 0 {
		tb.Heap.OnCommitStamp(seg, maxIns, maxDel)
	}
}

// localInsertBatch copies one batch of remote tuples into the local replica
// preserving their timestamps. Each target page is pinned and latched once
// and filled until it rejects a row; index entries and segment timestamp
// bounds are recorded per page after the latch drops, instead of per tuple.
func (r *engine) localInsertBatch(tb *storage.Table, rows []tuple.Tuple) error {
	heap := tb.Heap
	desc := heap.Desc()
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
		notePlaced(tb, seg, pid, placed)
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

// call sends one request to a site over a fresh connection and returns the
// reply.
func call(cat *catalog.Catalog, site catalog.SiteID, m *wire.Msg) (*wire.Msg, error) {
	addr, ok := cat.SiteAddr(site)
	if !ok {
		return nil, fmt.Errorf("core: no address for site %d", site)
	}
	c, err := comm.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Call(m)
}

// coordinatorHWM asks the timestamp authority for the high water mark.
func (r *engine) coordinatorHWM() (tuple.Timestamp, error) {
	resp, err := call(r.Cat, r.Cat.Coordinator(), &wire.Msg{Type: wire.MsgCurrentTime})
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
	resp, err := call(r.Cat, r.Cat.Coordinator(), &wire.Msg{Type: wire.MsgObjectStatus, Site: int32(r.Site.Cfg.Site), Table: table})
	return err == nil && resp.Type == wire.MsgOK && resp.Flags&wire.FlagSurvivor != 0
}

// objectOnlineAt asks the coordinator whether a site's replica of a table
// participates in updates.
func (r *engine) objectOnlineAt(site catalog.SiteID, table int32) (bool, error) {
	resp, err := call(r.Cat, r.Cat.Coordinator(), &wire.Msg{Type: wire.MsgObjectStatus, Site: int32(site), Table: table})
	if err != nil {
		return false, err
	}
	return resp.Type == wire.MsgOK && resp.Flags&wire.FlagYes != 0, nil
}
