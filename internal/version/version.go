// Package version is the versioning and timestamp management layer of
// §6.1.4: a wrapper around the buffer pool that implements the timestamped
// data model of §3.3 and the in-memory insertion/deletion lists of §4.1.
//
// Inserts write tuples with the special Uncommitted insertion timestamp and
// remember the record id in the transaction's insertion list; deletes only
// remember the record id in the deletion list ("without yet engendering any
// actual page modifications", §6.1.4) because the deletion timestamp is
// unknown until commit; updates are a delete of the old version plus an
// insert of the new one. At commit the layer assigns the commit time to
// every listed tuple; at abort it physically removes inserted tuples.
//
// When a WAL is attached (ARIES / logging commit protocols) every page
// modification is logged first, including the commit-time timestamp stamping
// (§6.1.7), and rollback walks the undo chain writing CLRs. When no WAL is
// attached (HARBOR mode) rollback uses the insertion list alone — no undo
// information is ever needed because versioned operations never overwrite
// data (§4.1).
package version

import (
	"fmt"
	"sync"

	"harbor/internal/buffer"
	"harbor/internal/lockmgr"
	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/wal"
)

// TxnID aliases the lock manager's transaction id.
type TxnID = lockmgr.TxnID

// opRec remembers one listed tuple: where it lives, which segment it is in,
// and its key (for index maintenance on rollback).
type opRec struct {
	rid page.RecordID
	seg int32
	key int64
}

// Txn is the per-transaction in-memory state.
type Txn struct {
	ID      TxnID
	LastLSN page.LSN
	inserts []opRec
	deletes []opRec
	// undoNext is transient state used while an ARIES-style rollback walks
	// the undo chain; it becomes each CLR's UndoNext pointer.
	undoNext page.LSN
}

// NumPending returns (inserts, deletes) listed so far (test instrumentation).
func (t *Txn) NumPending() (int, int) { return len(t.inserts), len(t.deletes) }

// Store is one site's versioning layer over its buffer pool, storage
// manager, lock manager, and (optionally) WAL.
type Store struct {
	Mgr   *storage.Manager
	Pool  *buffer.Pool
	Locks *lockmgr.Manager
	Log   *wal.Manager // nil in HARBOR mode

	mu   sync.Mutex
	txns map[TxnID]*Txn
	// freePages tracks pages with free slots per table (from rollbacks and
	// recovery's physical deletes), checked before allocating fresh pages.
	freePages map[int32]map[int32]bool

	// ScanPagesVisited and ScanPagesPruned count, over every sequential scan
	// of this store, the pages pinned and the pages skipped because their
	// key bounds ruled out the scan's predicate (exec.scan.pages_visited,
	// exec.scan.pages_pruned); rebindable via Instrument.
	ScanPagesVisited, ScanPagesPruned *obs.Counter
}

// NewStore wires the versioning layer. log may be nil.
func NewStore(mgr *storage.Manager, pool *buffer.Pool, locks *lockmgr.Manager, log *wal.Manager) *Store {
	s := &Store{
		Mgr:       mgr,
		Pool:      pool,
		Locks:     locks,
		Log:       log,
		txns:      map[TxnID]*Txn{},
		freePages: map[int32]map[int32]bool{},
	}
	s.Instrument(obs.NewRegistry())
	return s
}

// Instrument rebinds the store's counters to reg (call before concurrent
// use); the owning Site passes its registry.
func (s *Store) Instrument(reg *obs.Registry) {
	s.ScanPagesVisited = reg.Counter("exec.scan.pages_visited")
	s.ScanPagesPruned = reg.Counter("exec.scan.pages_pruned")
}

// Begin registers a transaction. Idempotent.
func (s *Store) Begin(tid TxnID) *Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.txns[tid]; ok {
		return t
	}
	t := &Txn{ID: tid}
	s.txns[tid] = t
	return t
}

// Get returns the transaction state, or nil.
func (s *Store) Get(tid TxnID) *Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txns[tid]
}

// ActiveTxns lists the ids of transactions with registered state.
func (s *Store) ActiveTxns() []TxnID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TxnID, 0, len(s.txns))
	for id := range s.txns {
		out = append(out, id)
	}
	return out
}

// MarkFreeSlot records that a page has at least one free slot.
func (s *Store) MarkFreeSlot(table, pageNo int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.freePages[table]
	if m == nil {
		m = map[int32]bool{}
		s.freePages[table] = m
	}
	m[pageNo] = true
}

func (s *Store) takeFreeSlotPage(table int32, lastSeg int32, heap *storage.HeapFile) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.freePages[table]
	for p := range m {
		if heap.SegmentFor(p) == lastSeg {
			return p
		}
		// Stale or non-last-segment entry: drop it so the map stays small
		// (normal inserts must target the last segment, §4.2).
		delete(m, p)
	}
	return -1
}

func (s *Store) clearFreeSlot(table, pageNo int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.freePages[table]; m != nil {
		delete(m, pageNo)
	}
}

// ClearFreeSlot withdraws a page from the free-slot candidates; the purge
// path calls it when it releases an emptied page back to the heap.
func (s *Store) ClearFreeSlot(table, pageNo int32) { s.clearFreeSlot(table, pageNo) }

// InsertTuple writes t (user fields only matter; timestamps are overridden
// to Uncommitted/NotDeleted) into the table's last segment and lists it in
// tid's insertion list. The page is X-locked for the transaction.
func (s *Store) InsertTuple(tid TxnID, table int32, t tuple.Tuple) (page.RecordID, error) {
	tb, err := s.Mgr.Get(table)
	if err != nil {
		return page.RecordID{}, err
	}
	txn := s.Begin(tid)
	heap := tb.Heap
	desc := heap.Desc()
	t = t.Clone()
	t.SetInsTS(tuple.Uncommitted)
	t.SetDelTS(tuple.NotDeleted)
	enc := t.Encode(desc)

	for attempt := 0; attempt < 6; attempt++ {
		pno, seg, created, err := s.pickInsertPage(heap, table)
		if err != nil {
			return page.RecordID{}, err
		}
		pid := page.ID{Table: table, PageNo: pno}
		// Candidate pages that another transaction holds exclusively are
		// skipped rather than waited on: the §6.1.3 shared-scan/upgrade
		// dance exists to find *free* slots, and a page X-locked by a
		// concurrent inserter will not free up until that txn finishes.
		// A freshly allocated page is acquired with normal blocking
		// semantics (it may still have to wait behind a recovering site's
		// table read lock, which is exactly the §5.4 behaviour).
		if !created {
			got, lockErr := s.Locks.TryAcquire(tid, lockmgr.PageTarget(table, pno), lockmgr.X)
			if lockErr != nil {
				return page.RecordID{}, lockErr
			}
			if !got {
				s.clearFreeSlot(table, pno)
				heap.SetInsertHint(-1)
				continue
			}
		}
		f, err := s.Pool.GetPage(tid, pid, buffer.WritePerm)
		if err != nil {
			return page.RecordID{}, err
		}
		f.Latch.Lock()
		slot, insErr := f.Page.Insert(enc)
		var lsn page.LSN
		if insErr == nil {
			if s.Log != nil {
				if created {
					s.Log.Append(&wal.Record{Type: wal.RecAlloc, Page: pid, SegIdx: seg})
				}
				lsn = s.Log.Append(&wal.Record{
					Type: wal.RecInsert, Txn: int64(tid), PrevLSN: txn.LastLSN,
					Page: pid, Slot: int32(slot), Image: enc, SegIdx: seg,
				})
				f.Page.SetLSN(lsn)
				txn.LastLSN = lsn
			}
			if f.Page.FirstFree() >= 0 {
				heap.SetInsertHint(pno)
			} else {
				s.clearFreeSlot(table, pno)
			}
		}
		f.Latch.Unlock()
		if insErr == page.ErrPageFull {
			s.Pool.Unpin(f, false, 0)
			s.clearFreeSlot(table, pno)
			heap.SetInsertHint(-1)
			continue
		}
		if insErr != nil {
			s.Pool.Unpin(f, false, 0)
			return page.RecordID{}, insErr
		}
		s.Pool.Unpin(f, true, lsn)
		rid := page.RecordID{Page: pid, Slot: slot}
		heap.OnUncommittedInsert(seg)
		key := t.Key(desc)
		tb.Index.Add(key, rid)
		s.mu.Lock()
		txn.inserts = append(txn.inserts, opRec{rid: rid, seg: seg, key: key})
		s.mu.Unlock()
		return rid, nil
	}
	return page.RecordID{}, fmt.Errorf("version: table %d: no insertable page after retries", table)
}

// pickInsertPage chooses the target page for an insert: the heap's insert
// hint, then any known free-slot page in the last segment, then a fresh
// allocation.
func (s *Store) pickInsertPage(heap *storage.HeapFile, table int32) (pno, seg int32, created bool, err error) {
	if hint := heap.InsertHint(); hint >= 0 {
		return hint, heap.SegmentFor(hint), false, nil
	}
	last := heap.LastSegment()
	if last >= 0 {
		if p := s.takeFreeSlotPage(table, last, heap); p >= 0 {
			return p, last, false, nil
		}
	}
	pno, seg, err = heap.AllocPage()
	if err != nil {
		return 0, 0, false, err
	}
	return pno, seg, true, nil
}

// DeleteTuple lists the tuple at rid in tid's deletion list, taking an
// exclusive page lock so the deletion timestamp can be stamped at commit.
// Per §6.1.4 no page bytes change yet. Returns the tuple's key.
func (s *Store) DeleteTuple(tid TxnID, table int32, rid page.RecordID) (int64, error) {
	tb, err := s.Mgr.Get(table)
	if err != nil {
		return 0, err
	}
	txn := s.Begin(tid)
	f, err := s.Pool.GetPage(tid, rid.Page, buffer.WritePerm)
	if err != nil {
		return 0, err
	}
	f.Latch.RLock()
	var key int64
	var delTS int64
	if !f.Page.Used(rid.Slot) {
		f.Latch.RUnlock()
		s.Pool.Unpin(f, false, 0)
		return 0, fmt.Errorf("version: delete of free slot %v", rid)
	}
	desc := tb.Heap.Desc()
	key, err = f.Page.ReadInt64At(rid.Slot, desc.Offset(desc.Key))
	if err == nil {
		delTS, err = f.Page.ReadInt64At(rid.Slot, desc.Offset(tuple.FieldDelTS))
	}
	f.Latch.RUnlock()
	s.Pool.Unpin(f, false, 0)
	if err != nil {
		return 0, err
	}
	if delTS != tuple.NotDeleted {
		return 0, fmt.Errorf("version: tuple %v already deleted at %d", rid, delTS)
	}
	seg := tb.Heap.SegmentFor(rid.Page.PageNo)
	if s.Log != nil {
		// Log the intent (no page change yet) so that a prepared
		// transaction's deletion list survives a crash and the in-doubt
		// commit can still be completed by stamping at recovery.
		lsn := s.Log.Append(&wal.Record{
			Type: wal.RecDeleteIntent, Txn: int64(tid), PrevLSN: txn.LastLSN,
			Page: rid.Page, Slot: int32(rid.Slot), SegIdx: seg,
		})
		txn.LastLSN = lsn
	}
	s.mu.Lock()
	txn.deletes = append(txn.deletes, opRec{rid: rid, seg: seg, key: key})
	s.mu.Unlock()
	return key, nil
}

// UpdateTuple implements §3.3's update semantics: a deletion of the old
// version plus an insertion of the new one (which must carry the same key).
func (s *Store) UpdateTuple(tid TxnID, table int32, rid page.RecordID, newTuple tuple.Tuple) (page.RecordID, error) {
	tb, err := s.Mgr.Get(table)
	if err != nil {
		return page.RecordID{}, err
	}
	key, err := s.DeleteTuple(tid, table, rid)
	if err != nil {
		return page.RecordID{}, err
	}
	if got := newTuple.Key(tb.Heap.Desc()); got != key {
		return page.RecordID{}, fmt.Errorf("version: update changes key %d → %d", key, got)
	}
	return s.InsertTuple(tid, table, newTuple)
}

// Prepare logs (and optionally forces) a PREPARE record. With no WAL this
// is a no-op: an optimized-protocol worker "simply checks any consistency
// constraints and votes" (§4.3.2).
func (s *Store) Prepare(tid TxnID, force bool) error {
	if s.Log == nil {
		return nil
	}
	txn := s.Begin(tid)
	lsn := s.Log.Append(&wal.Record{Type: wal.RecPrepare, Txn: int64(tid), PrevLSN: txn.LastLSN})
	txn.LastLSN = lsn
	if force {
		return s.Log.Force(lsn, true)
	}
	return nil
}

// PrepareToCommit logs (and optionally forces) the canonical-3PC
// prepared-to-commit record, carrying the commit time from the
// PREPARE-TO-COMMIT message so that restart can complete the commit without
// the coordinator (§4.3.3).
func (s *Store) PrepareToCommit(tid TxnID, ts tuple.Timestamp, force bool) error {
	if s.Log == nil {
		return nil
	}
	txn := s.Begin(tid)
	lsn := s.Log.Append(&wal.Record{Type: wal.RecPrepareToCommit, Txn: int64(tid), PrevLSN: txn.LastLSN, CommitTS: ts})
	txn.LastLSN = lsn
	if force {
		return s.Log.Force(lsn, true)
	}
	return nil
}

// Commit stamps the commit time onto every tuple in the transaction's
// insertion and deletion lists (§6.1.4), optionally logs a COMMIT record
// (forced or not per the commit protocol in use), releases the
// transaction's locks, and discards its in-memory state.
func (s *Store) Commit(tid TxnID, ts tuple.Timestamp, logCommit, forceCommit bool) error {
	s.mu.Lock()
	txn := s.txns[tid]
	s.mu.Unlock()
	if txn == nil {
		// Read-only or unknown transaction: just release locks.
		s.Locks.ReleaseAll(tid)
		return nil
	}
	desc := func(table int32) (*storage.Table, error) { return s.Mgr.Get(table) }

	for _, op := range txn.inserts {
		tb, err := desc(op.rid.Page.Table)
		if err != nil {
			return err
		}
		off := tb.Heap.Desc().Offset(tuple.FieldInsTS)
		if err := s.stampField(txn, op.rid, off, tuple.Uncommitted, ts); err != nil {
			return err
		}
		tb.Heap.OnCommitStamp(op.seg, ts, 0)
		tb.Heap.OnUncommittedResolved(op.seg)
	}
	for _, op := range txn.deletes {
		tb, err := desc(op.rid.Page.Table)
		if err != nil {
			return err
		}
		off := tb.Heap.Desc().Offset(tuple.FieldDelTS)
		if err := s.stampField(txn, op.rid, off, tuple.NotDeleted, ts); err != nil {
			return err
		}
		tb.Heap.OnCommitStamp(op.seg, 0, ts)
	}
	if s.Log != nil && logCommit {
		lsn := s.Log.Append(&wal.Record{Type: wal.RecCommit, Txn: int64(tid), PrevLSN: txn.LastLSN, CommitTS: ts})
		txn.LastLSN = lsn
		if forceCommit {
			if err := s.Log.Force(lsn, true); err != nil {
				return err
			}
		}
	}
	if s.Pool.Policy().Force() {
		pids := map[page.ID]bool{}
		for _, op := range txn.inserts {
			pids[op.rid.Page] = true
		}
		for _, op := range txn.deletes {
			pids[op.rid.Page] = true
		}
		for pid := range pids {
			if err := s.Pool.FlushPage(pid); err != nil {
				return err
			}
		}
	}
	// Pages this transaction inserted into become placement candidates
	// again the moment its locks release. The insert hint is one global
	// slot that concurrent streams clobber, and an X-locked candidate is
	// skipped AND dropped from the free-page map — so without re-marking
	// here, a page probed once mid-transaction was forgotten forever and
	// every subsequent collision allocated a fresh page: one near-empty,
	// never-reused page per single-insert transaction.
	marked := map[page.ID]bool{}
	for _, op := range txn.inserts {
		if marked[op.rid.Page] {
			continue
		}
		marked[op.rid.Page] = true
		if f, err := s.Pool.GetPageNoLock(op.rid.Page); err == nil {
			f.Latch.RLock()
			free := f.Page.FirstFree() >= 0
			f.Latch.RUnlock()
			s.Pool.Unpin(f, false, 0)
			if free {
				s.MarkFreeSlot(op.rid.Page.Table, op.rid.Page.PageNo)
			}
		}
	}
	s.Locks.ReleaseAll(tid)
	s.mu.Lock()
	delete(s.txns, tid)
	s.mu.Unlock()
	return nil
}

// stampField writes an 8-byte field in place, logging first when a WAL is
// attached.
func (s *Store) stampField(txn *Txn, rid page.RecordID, off int, before, after int64) error {
	f, err := s.Pool.GetPageNoLock(rid.Page)
	if err != nil {
		return err
	}
	f.Latch.Lock()
	var lsn page.LSN
	if s.Log != nil {
		lsn = s.Log.Append(&wal.Record{
			Type: wal.RecSetField, Txn: int64(txn.ID), PrevLSN: txn.LastLSN,
			Page: rid.Page, Slot: int32(rid.Slot), FieldOff: int32(off),
			Before: before, After: after,
		})
		f.Page.SetLSN(lsn)
		txn.LastLSN = lsn
	}
	err = f.Page.WriteInt64At(rid.Slot, off, after)
	f.Latch.Unlock()
	s.Pool.Unpin(f, true, lsn)
	return err
}

// Abort rolls back the transaction: physically removing inserted tuples
// (HARBOR mode, driven by the insertion list) or undoing the log chain with
// CLRs (ARIES mode), then logging ABORT, releasing locks, and discarding
// in-memory state.
func (s *Store) Abort(tid TxnID) error {
	s.mu.Lock()
	txn := s.txns[tid]
	s.mu.Unlock()
	if txn == nil {
		s.Locks.ReleaseAll(tid)
		return nil
	}
	var err error
	if s.Log != nil {
		err = s.undoChain(txn)
		if err == nil {
			lsn := s.Log.Append(&wal.Record{Type: wal.RecAbort, Txn: int64(tid), PrevLSN: txn.LastLSN})
			txn.LastLSN = lsn
		}
	} else {
		err = s.rollbackFromLists(txn)
	}
	s.Locks.ReleaseAll(tid)
	s.mu.Lock()
	delete(s.txns, tid)
	s.mu.Unlock()
	return err
}

// rollbackFromLists is the logless rollback of §4.1: remove newly inserted
// tuples; nothing to undo for deletes because deletion timestamps were
// never assigned.
func (s *Store) rollbackFromLists(txn *Txn) error {
	for i := len(txn.inserts) - 1; i >= 0; i-- {
		op := txn.inserts[i]
		if err := s.physicalDelete(txn, op.rid, op.seg, op.key, false); err != nil {
			return err
		}
	}
	return nil
}

// physicalDelete frees a slot, maintains the index and free-page map, and
// (when logged) writes the given CLR-or-delete record.
func (s *Store) physicalDelete(txn *Txn, rid page.RecordID, seg int32, key int64, logged bool) error {
	tb, err := s.Mgr.Get(rid.Page.Table)
	if err != nil {
		return err
	}
	f, err := s.Pool.GetPageNoLock(rid.Page)
	if err != nil {
		return err
	}
	f.Latch.Lock()
	var lsn page.LSN
	if logged && s.Log != nil {
		// CLR: redo-only physical delete; undo continues at the record
		// before the insert being compensated. FieldOff = -1 marks a
		// slot-delete CLR (as opposed to a field-restore CLR).
		lsn = s.Log.Append(&wal.Record{
			Type: wal.RecCLR, Txn: int64(txn.ID), PrevLSN: txn.LastLSN,
			Page: rid.Page, Slot: int32(rid.Slot), FieldOff: -1, UndoNext: txn.undoNext,
		})
		f.Page.SetLSN(lsn)
		txn.LastLSN = lsn
	}
	delErr := f.Page.Delete(rid.Slot)
	f.Latch.Unlock()
	s.Pool.Unpin(f, true, lsn)
	if delErr != nil {
		return delErr
	}
	tb.Index.Remove(key, rid)
	tb.Heap.OnUncommittedResolved(seg)
	s.MarkFreeSlot(rid.Page.Table, rid.Page.PageNo)
	return nil
}

// undoChain is the ARIES-style rollback: walk the PrevLSN chain from the
// transaction's last record, compensating each undoable record.
func (s *Store) undoChain(txn *Txn) error {
	lsn := txn.LastLSN
	for lsn != 0 {
		rec, err := s.Log.ReadAt(lsn)
		if err != nil {
			return err
		}
		switch rec.Type {
		case wal.RecInsert:
			txn.undoNext = rec.PrevLSN
			// Key for index maintenance comes from the logged image.
			tb, err := s.Mgr.Get(rec.Page.Table)
			if err != nil {
				return err
			}
			desc := tb.Heap.Desc()
			t, err := tuple.Decode(desc, rec.Image)
			if err != nil {
				return err
			}
			if err := s.physicalDelete(txn, page.RecordID{Page: rec.Page, Slot: int(rec.Slot)}, rec.SegIdx, t.Key(desc), true); err != nil {
				return err
			}
			lsn = rec.PrevLSN
		case wal.RecSetField:
			txn.undoNext = rec.PrevLSN
			if err := s.compensateSetField(txn, rec); err != nil {
				return err
			}
			lsn = rec.PrevLSN
		case wal.RecCLR:
			lsn = rec.UndoNext
		default:
			lsn = rec.PrevLSN
		}
	}
	return nil
}

func (s *Store) compensateSetField(txn *Txn, rec *wal.Record) error {
	f, err := s.Pool.GetPageNoLock(rec.Page)
	if err != nil {
		return err
	}
	f.Latch.Lock()
	lsn := s.Log.Append(&wal.Record{
		Type: wal.RecCLR, Txn: int64(txn.ID), PrevLSN: txn.LastLSN,
		Page: rec.Page, Slot: rec.Slot, FieldOff: rec.FieldOff,
		After: rec.Before, UndoNext: rec.PrevLSN,
	})
	f.Page.SetLSN(lsn)
	txn.LastLSN = lsn
	err = f.Page.WriteInt64At(int(rec.Slot), int(rec.FieldOff), rec.Before)
	f.Latch.Unlock()
	s.Pool.Unpin(f, true, lsn)
	return err
}
