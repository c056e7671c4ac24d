package worker

import (
	"fmt"

	"harbor/internal/expr"
	"harbor/internal/lockmgr"
	"harbor/internal/page"
)

// PurgeRange physically deletes every local version (live or deleted) whose
// key falls in rng — the donor-side cleanup after a segment moved away, and
// the idempotency reset at the start of a migration attempt onto this site.
// The deletion is durable before return. It does NOT touch the recovery
// state table: absence of data is not a recovery state, it is placement.
func (s *Site) PurgeRange(table int32, rng expr.KeyRange) (int, error) {
	if rng.Empty() {
		return 0, nil
	}
	tb, err := s.Mgr.Get(table)
	if err != nil {
		return 0, err
	}
	heap := tb.Heap
	desc := heap.Desc()
	keyOff := desc.Offset(desc.Key)
	purged := 0
	var emptied []int32
	lastSeg := heap.LastSegment()
	for _, si := range heap.AllSegments() {
		for _, pno := range heap.SegmentPages(si) {
			pid := page.ID{Table: heap.TableID(), PageNo: pno}
			f, err := s.Pool.GetPageNoLock(pid)
			if err != nil {
				return purged, err
			}
			f.Latch.Lock()
			dirty := false
			var perr error
			for slot := 0; slot < f.Page.NumSlots(); slot++ {
				if !f.Page.Used(slot) {
					continue
				}
				key, err2 := f.Page.ReadInt64At(slot, keyOff)
				if err2 != nil {
					perr = err2
					break
				}
				if !rng.Contains(key) {
					continue
				}
				if err2 := f.Page.Delete(slot); err2 != nil {
					perr = err2
					break
				}
				tb.Index.Remove(key, page.RecordID{Page: pid, Slot: slot})
				s.Store.MarkFreeSlot(pid.Table, pid.PageNo)
				purged++
				dirty = true
			}
			// A page the purge emptied entirely is a reclamation candidate:
			// without reclaiming, a donor that gave a range away keeps paying
			// scan I/O over its dead pages forever. Only pages this purge
			// drained qualify (an untouched empty page may be a concurrent
			// insert's fresh allocation), never in the append segment, and
			// never while a transaction holds a lock on the page.
			if dirty && perr == nil && si != lastSeg {
				empty := true
				for slot := 0; slot < f.Page.NumSlots(); slot++ {
					if f.Page.Used(slot) {
						empty = false
						break
					}
				}
				if empty && len(s.Store.Locks.HoldersOf(lockmgr.PageTarget(pid.Table, pid.PageNo))) == 0 {
					emptied = append(emptied, pno)
				}
			}
			f.Latch.Unlock()
			s.Pool.Unpin(f, dirty, 0)
			if perr != nil {
				return purged, perr
			}
		}
	}
	if err := s.Pool.FlushAll(); err != nil {
		return purged, err
	}
	// Discard before releasing: while a page still belongs to its segment it
	// cannot be re-allocated, so a frame that survives (pinned by a
	// straggling scan) only ever shows the empty image just flushed.
	for _, pno := range emptied {
		s.Pool.Discard(page.ID{Table: heap.TableID(), PageNo: pno})
		s.Store.ClearFreeSlot(heap.TableID(), pno)
	}
	// The emptied images are durable before the meta that frees them.
	if err := heap.SyncData(); err != nil {
		return purged, err
	}
	if err := heap.ReleasePages(emptied); err != nil {
		return purged, err
	}
	s.reg.Counter("worker.purge.pages_released").Add(int64(len(emptied)))
	if err := heap.FlushMeta(); err != nil {
		return purged, err
	}
	s.reg.Counter("worker.purge.ranges").Inc()
	s.reg.Counter("worker.purge.tuples").Add(int64(purged))
	return purged, nil
}

// MarkRangePurged records that this incarnation deleted rng of table after
// its coverage moved away. Scans (plain or recovery) declaring an
// intersecting range carry a plan resolved against placement from before
// the move; they are refused with a placement-stale error so the
// coordinator replans against the current catalog instead of silently
// reading the hole.
func (s *Site) MarkRangePurged(table int32, rng expr.KeyRange) {
	if rng.Empty() {
		return
	}
	s.purgeMu.Lock()
	defer s.purgeMu.Unlock()
	if s.purged == nil {
		s.purged = map[int32][]expr.KeyRange{}
	}
	for _, have := range s.purged[table] {
		if have == rng {
			return
		}
	}
	s.purged[table] = append(s.purged[table], rng)
}

// ClearPurgedRange withdraws purge notes overlapping rng — the site is
// re-acquiring coverage of the range (a migration back onto it), so reads
// there are legitimate again once the transfer completes.
func (s *Site) ClearPurgedRange(table int32, rng expr.KeyRange) {
	s.purgeMu.Lock()
	defer s.purgeMu.Unlock()
	if s.purged == nil {
		return
	}
	kept := s.purged[table][:0]
	for _, have := range s.purged[table] {
		if have.Intersect(rng).Empty() {
			kept = append(kept, have)
		}
	}
	s.purged[table] = kept
}

// rangePurged reports whether rng overlaps a purged range of table.
func (s *Site) rangePurged(table int32, rng expr.KeyRange) bool {
	s.purgeMu.Lock()
	defer s.purgeMu.Unlock()
	for _, have := range s.purged[table] {
		if !have.Intersect(rng).Empty() {
			return true
		}
	}
	return false
}

// objectWritable gates writes per segment the way objectReadable gates
// reads: a write landing on a segment that is mid-transfer promotes the
// segment in the recovery hotness queue exactly like a refused read does.
// Catchup and Ready accept the write (the §5.4.2 join replay and post-flip
// update routing both target Catchup segments); anything earlier refuses —
// the segment's contents are about to be rewound or re-copied, and the
// coordinator should not have routed here.
func (s *Site) objectWritable(table int32, key int64) error {
	rng := expr.KeyRange{Lo: key, Hi: key + 1}
	var refused *SegmentStatus
	segs := s.ObjectSegments(table)
	for i := range segs {
		seg := &segs[i]
		if !seg.Range.Contains(key) {
			continue
		}
		if seg.State == ObjReady || seg.State == ObjCatchup {
			continue
		}
		refused = seg
	}
	if refused == nil {
		return nil
	}
	s.requestFaultIn(table, rng)
	return fmt.Errorf("worker: site %d object %d segment [%d,%d) is recovering (state %v, copied through %d); write refused",
		s.Cfg.Site, table, refused.Range.Lo, refused.Range.Hi, refused.State, refused.CopiedThrough)
}
