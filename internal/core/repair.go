// Torn-page repair: a page whose CRC32 trailer fails verification is
// quarantined by the storage layer and treated here as a *missing key
// range*. The segment directory maps the bad page to its segment's
// insertion-timestamp bounds [TminIns, TmaxIns]; everything the page could
// have held lies inside that window, so the same lock-free historical
// buddy scan that drives recovery Phase 2 (§5.3) can restore it: fetch the
// window from a live buddy as of the coordinator's high water mark, skip
// the versions still present locally on healthy pages, and re-insert the
// remainder. No redo log is consulted — this is the HARBOR thesis applied
// to media corruption instead of whole-site loss.
package core

import (
	"errors"
	"fmt"
	"math"

	"harbor/internal/catalog"
	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/wire"
)

// ErrRepairDeferred reports that an online repair was declined because a
// quarantined page's segment may still hold uncommitted tuples: reformatting
// it could strand in-flight commit stamping. The page stays quarantined
// (scans skip it, point reads keep failing) and a later read retries.
var ErrRepairDeferred = errors.New("core: page repair deferred (segment may hold uncommitted tuples)")

// RepairTable restores every quarantined page of one local table online,
// without taking the site offline. It is the worker read path's corruption
// hook: wired via worker.Site.SetRepairHook, fired in the background the
// first time a scan or point read trips ErrPageCorrupt. Returns the number
// of pages repaired.
func (r *Recoverer) RepairTable(table int32) (int, error) {
	tb, err := r.Site.Mgr.Get(table)
	if err != nil {
		return 0, err
	}
	heap := tb.Heap
	pages := heap.QuarantinedPages()
	if len(pages) == 0 {
		return 0, nil
	}
	// Online safety gate: only segments proven fully committed are eligible.
	// A segment at or past MinUncommittedSeg may hold tuples whose commit
	// stamp is still in flight by record id; reformatting the page would
	// redirect those rids at the wrong slots.
	if mu := heap.MinUncommittedSeg(); mu >= 0 {
		for _, pno := range pages {
			if si := heap.SegmentFor(pno); si >= mu {
				return 0, ErrRepairDeferred
			}
		}
	}
	var rep *catalog.Replica
	for _, cand := range r.Cat.ReplicasOn(r.Site.Cfg.Site) {
		if cand.Table == table {
			c := cand
			rep = &c
			break
		}
	}
	if rep == nil {
		return 0, fmt.Errorf("core: table %d has no replica on site %d", table, r.Site.Cfg.Site)
	}
	return r.repairTable(tb, *rep, 0, false)
}

// repairTable reformats and restores every quarantined page of one replica.
//
// capTS > 0 caps the restored insertion window at the recovery checkpoint:
// during RecoverSite the scrub runs *before* Phase 1, whose rewind deletes
// everything inserted after the checkpoint anyway, and Phase 2 then re-copies
// the (ckpt, hwm] window table-wide without deduplication — restoring those
// tuples here too would duplicate them. Online repair passes capTS = 0 (no
// Phase 2 follows, so the full window must be restored).
//
// With survivor = true there is no live buddy by definition (§5.5 total
// outage): the pages are reformatted so the replica stays scannable, and the
// unrecoverable loss is recorded loudly instead of silently.
func (r *Recoverer) repairTable(tb *storage.Table, rep catalog.Replica, capTS tuple.Timestamp, survivor bool) (int, error) {
	heap := tb.Heap
	pages := heap.QuarantinedPages()
	if len(pages) == 0 {
		return 0, nil
	}
	reg, tr := r.Site.Obs(), r.Site.Trace()
	traceID := int64(r.ids.Next())
	desc := heap.Desc()
	insOff := desc.Offset(tuple.FieldInsTS)

	// The missing key range's timestamp bounds: the union of the insertion
	// windows of every segment owning a quarantined page.
	segs := heap.Segments()
	lo := tuple.Timestamp(math.MaxInt64)
	hi := tuple.Timestamp(0)
	for _, pno := range pages {
		if si := heap.SegmentFor(pno); si >= 0 && int(si) < len(segs) {
			s := segs[si]
			if s.TmaxIns > 0 {
				if s.TminIns < lo {
					lo = s.TminIns
				}
				if s.TmaxIns > hi {
					hi = s.TmaxIns
				}
			}
		}
	}
	if capTS > 0 && hi > capTS {
		hi = capTS
	}

	// Fetch the lost window from live buddies BEFORE touching the bad pages:
	// until the fetch is safely in memory, the quarantine must survive. If
	// the pages were reformatted first and the buddy fetch then failed, the
	// quarantine would already be lifted over a blank, valid-CRC page — the
	// committed rows silently gone, with nothing left to re-arm the repair.
	// With fetch-first, a failed attempt leaves the pages quarantined (reads
	// keep erroring, the coordinator replans them to healthy replicas) and
	// the next corrupt read retries the repair. The survivor and empty-window
	// paths skip the fetch: one has no buddy by definition, the other needs
	// nothing restored.
	windowEmpty := hi == 0 || lo > hi
	var fetched []tuple.Tuple
	var hwm tuple.Timestamp
	if !windowEmpty && !survivor {
		var err error
		fetched, hwm, err = r.fetchRepairWindow(rep, desc, lo, hi)
		if err != nil {
			return 0, err
		}
	}

	// Drop the bad pages' stale index entries (the keys cannot be read back,
	// so this is a sweep by page id). The index then knows exactly the
	// versions that survive on healthy pages.
	for _, pno := range pages {
		tb.Index.DropPage(page.ID{Table: heap.TableID(), PageNo: pno})
	}

	// A fetched version is missing exactly when no healthy page still holds
	// it: each version is stored once per replica, so (key, insertion time)
	// identifies it, and the index knows every survivor.
	present := func(key int64, ins tuple.Timestamp) (bool, error) {
		for _, rid := range tb.Index.Lookup(key) {
			f, err := r.Site.Pool.GetPageNoLock(rid.Page)
			if err != nil {
				return false, err
			}
			f.Latch.Lock()
			var got int64
			var err2 error
			if f.Page.Used(rid.Slot) {
				got, err2 = f.Page.ReadInt64At(rid.Slot, insOff)
			}
			f.Latch.Unlock()
			r.Site.Pool.Unpin(f, false, 0)
			if err2 != nil {
				return false, err2
			}
			if tuple.Timestamp(got) == ins {
				return true, nil
			}
		}
		return false, nil
	}
	var missing []tuple.Tuple
	for _, t := range fetched {
		ok, err := present(t.Key(desc), t.InsTS())
		if err != nil {
			return 0, err
		}
		if !ok {
			missing = append(missing, t)
		}
	}

	// Rewrite each bad page with the missing versions already in it (none
	// on the empty-window and survivor paths): the write that lifts the
	// quarantine must not expose an empty page to a concurrent scan, which
	// would answer for the lost range with nothing instead of failing over.
	if err := r.repairPlace(tb, pages, missing); err != nil {
		return 0, err
	}

	if windowEmpty {
		// The owning segments hold nothing committed inside the cap;
		// reformatting alone restores the invariant.
		if err := r.flushObject(tb); err != nil {
			return 0, fmt.Errorf("%w: %v", errLocalApply, err)
		}
		reg.Counter("recover.page_repairs").Add(int64(len(pages)))
		tr.Recordf(traceID, obs.EvRecovery,
			"page repair table=%d pages=%v empty-window reformat only", rep.Table, pages)
		return len(pages), nil
	}

	if survivor {
		// Final survivor of a total outage: no buddy exists that could hold
		// the lost window. Keep the replica scannable, report the loss.
		if err := r.flushObject(tb); err != nil {
			return 0, fmt.Errorf("%w: %v", errLocalApply, err)
		}
		reg.Counter("recover.page_repairs_lost").Add(int64(len(pages)))
		tr.Recordf(traceID, obs.EvRecovery,
			"page repair table=%d pages=%v UNRECOVERABLE: final survivor, window=[%d,%d] lost",
			rep.Table, pages, lo, hi)
		return len(pages), nil
	}

	if err := r.flushObject(tb); err != nil {
		return 0, fmt.Errorf("%w: %v", errLocalApply, err)
	}
	reg.Counter("recover.page_repairs").Add(int64(len(pages)))
	reg.Counter("recover.page_repair_tuples").Add(int64(len(missing)))
	tr.Recordf(traceID, obs.EvRecovery,
		"page repair table=%d pages=%v window=[%d,%d] asof=%d restored=%d",
		rep.Table, pages, lo, hi, hwm, len(missing))
	return len(pages), nil
}

// fetchRepairWindow pulls every version of the replica's key range whose
// insertion timestamp lies in (lo-1, hi] from live buddies, as of the
// coordinator's high water mark: a §5.3 historical SEE DELETED scan, so the
// copied images arrive with every deletion stamp through hwm already
// applied. Failures are classified like Phase 2's: transport errors wrap
// errBuddyFailed (the recovery retry loop replans), and nothing local has
// been modified yet, so the caller can abandon the repair safely.
func (r *Recoverer) fetchRepairWindow(rep catalog.Replica, desc *tuple.Desc, lo, hi tuple.Timestamp) ([]tuple.Tuple, tuple.Timestamp, error) {
	hwm, err := r.coordinatorHWM()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: hwm: %v", errBuddyFailed, err)
	}
	plan, err := r.Cat.RecoveryPlan(rep.Table, rep.Range, r.Site.Cfg.Site, r.buddyLiveFor(rep.Table))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errBuddyFailed, err)
	}
	var fetched []tuple.Tuple
	for _, src := range plan {
		req := &wire.Msg{
			Type: wire.MsgRecoveryScan, Table: src.Table, TS: hwm,
			KeyLo: src.Pred.Lo, KeyHi: src.Pred.Hi,
			Flags: wire.FlagHasInsGT | wire.FlagHasInsLE,
			InsGT: lo - 1, InsLE: hi,
		}
		err := r.streamFrom(r.mustAddr(src.Buddy), req, desc, nil,
			func(rows []tuple.Tuple) error {
				for _, t := range rows {
					fetched = append(fetched, t.Clone())
				}
				return nil
			})
		if err != nil {
			return nil, 0, err
		}
	}
	return fetched, hwm, nil
}

// repairPlace rewrites each quarantined target page as a fresh image holding
// as many of rows as fit, in one WritePageData (which stamps a valid CRC and
// lifts the quarantine), and spills any overflow through the normal insert
// path. The buffer pool cannot hold a frame for any of these pages — the
// read that would have populated one is exactly what failed.
func (r *Recoverer) repairPlace(tb *storage.Table, targets []int32, rows []tuple.Tuple) error {
	heap := tb.Heap
	desc := heap.Desc()
	i := 0
	for _, pno := range targets {
		seg := heap.SegmentFor(pno)
		pid := page.ID{Table: heap.TableID(), PageNo: pno}
		img := page.New(pid, heap.TupleWidth())
		var placed []placedRow
		for seg >= 0 && i < len(rows) {
			t := rows[i]
			slot, err := img.Insert(t.Encode(desc))
			if err != nil {
				break // page full; move to the next target
			}
			placed = append(placed, placedRow{t.Key(desc), slot, t.InsTS(), t.DelTS()})
			i++
		}
		if err := heap.WritePageData(pno, img.Bytes()); err != nil {
			return fmt.Errorf("%w: reformat page %d: %v", errLocalApply, pno, err)
		}
		r.Site.Store.MarkFreeSlot(heap.TableID(), pno)
		notePlaced(tb, seg, pid, placed)
	}
	if i < len(rows) {
		if err := r.localInsertBatch(tb, rows[i:]); err != nil {
			return fmt.Errorf("%w: %v", errLocalApply, err)
		}
	}
	return nil
}

// mustAddr resolves a buddy address, yielding a dial-time failure (and thus
// an errBuddyFailed replan) rather than a panic when the catalog is stale.
func (r *Recoverer) mustAddr(s catalog.SiteID) string {
	addr, _ := r.Cat.SiteAddr(s)
	return addr
}
