package version

import (
	"testing"
	"time"

	"harbor/internal/buffer"
	"harbor/internal/lockmgr"
	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/wal"
)

func testDesc() *tuple.Desc {
	return tuple.MustDesc("id",
		tuple.FieldDef{Name: "id", Type: tuple.Int64},
		tuple.FieldDef{Name: "v", Type: tuple.Int32},
	)
}

// newSite builds a full single-site stack; withLog selects ARIES mode.
func newSite(t *testing.T, withLog bool) (*Store, *storage.Table) {
	t.Helper()
	dir := t.TempDir()
	mgr, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	var log *wal.Manager
	if withLog {
		log, err = wal.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
	}
	locks := lockmgr.New(500 * time.Millisecond)
	pool := buffer.New(&PageStore{Mgr: mgr, Log: log}, locks, 64, buffer.StealNoForce)
	st := NewStore(mgr, pool, locks, log)
	tb, err := mgr.Create(1, testDesc(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return st, tb
}

func mk(d *tuple.Desc, id, v int64) tuple.Tuple {
	return tuple.MustMake(d, tuple.VInt(id), tuple.VInt(v))
}

// readTuple fetches a tuple via the pool.
func readTuple(t *testing.T, st *Store, rid page.RecordID) tuple.Tuple {
	t.Helper()
	tb, err := st.Mgr.Get(rid.Page.Table)
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.Pool.GetPageNoLock(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Pool.Unpin(f, false, 0)
	f.Latch.RLock()
	defer f.Latch.RUnlock()
	if !f.Page.Used(rid.Slot) {
		t.Fatalf("slot %v not in use", rid)
	}
	raw, err := f.Page.Slot(rid.Slot)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := tuple.Decode(tb.Heap.Desc(), raw)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func slotUsed(t *testing.T, st *Store, rid page.RecordID) bool {
	t.Helper()
	f, err := st.Pool.GetPageNoLock(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Pool.Unpin(f, false, 0)
	f.Latch.RLock()
	defer f.Latch.RUnlock()
	return f.Page.Used(rid.Slot)
}

func TestInsertCommitStampsTimestamps(t *testing.T) {
	for _, withLog := range []bool{false, true} {
		st, tb := newSite(t, withLog)
		rid, err := st.InsertTuple(100, 1, mk(tb.Heap.Desc(), 7, 42))
		if err != nil {
			t.Fatal(err)
		}
		got := readTuple(t, st, rid)
		if got.InsTS() != tuple.Uncommitted || got.DelTS() != tuple.NotDeleted {
			t.Fatalf("withLog=%v: pre-commit timestamps %d/%d", withLog, got.InsTS(), got.DelTS())
		}
		if tb.Heap.MinUncommittedSeg() != 0 {
			t.Fatalf("withLog=%v: MinUncommittedSeg = %d", withLog, tb.Heap.MinUncommittedSeg())
		}
		if err := st.Commit(100, 55, withLog, withLog); err != nil {
			t.Fatal(err)
		}
		got = readTuple(t, st, rid)
		if got.InsTS() != 55 || got.DelTS() != tuple.NotDeleted {
			t.Fatalf("withLog=%v: post-commit timestamps %d/%d", withLog, got.InsTS(), got.DelTS())
		}
		segs := tb.Heap.Segments()
		if segs[0].TminIns != 55 || segs[0].TmaxIns != 55 {
			t.Fatalf("withLog=%v: segment stats %+v", withLog, segs[0])
		}
		if tb.Heap.MinUncommittedSeg() != -1 {
			t.Fatalf("withLog=%v: uncommitted bound not cleared", withLog)
		}
		if len(tb.Index.Lookup(7)) != 1 {
			t.Fatalf("withLog=%v: index missing key", withLog)
		}
		// Locks released after commit.
		if st.Locks.NumLocked() != 0 {
			t.Fatalf("withLog=%v: %d locks leak after commit", withLog, st.Locks.NumLocked())
		}
	}
}

func TestDeleteStampsAtCommitOnly(t *testing.T) {
	st, tb := newSite(t, false)
	rid, err := st.InsertTuple(1, 1, mk(tb.Heap.Desc(), 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(1, 10, false, false); err != nil {
		t.Fatal(err)
	}
	key, err := st.DeleteTuple(2, 1, rid)
	if err != nil {
		t.Fatal(err)
	}
	if key != 9 {
		t.Fatalf("delete returned key %d", key)
	}
	// No page change before commit.
	if got := readTuple(t, st, rid); got.DelTS() != tuple.NotDeleted {
		t.Fatalf("delete modified page before commit: del=%d", got.DelTS())
	}
	if err := st.Commit(2, 20, false, false); err != nil {
		t.Fatal(err)
	}
	if got := readTuple(t, st, rid); got.DelTS() != 20 {
		t.Fatalf("delete not stamped: del=%d", got.DelTS())
	}
	if segs := tb.Heap.Segments(); segs[0].TmaxDel != 20 {
		t.Fatalf("TmaxDel = %d", segs[0].TmaxDel)
	}
	// The tuple still physically exists (versioned delete).
	if !slotUsed(t, st, rid) {
		t.Fatal("versioned delete removed the tuple physically")
	}
}

func TestDoubleDeleteRejected(t *testing.T) {
	st, tb := newSite(t, false)
	rid, _ := st.InsertTuple(1, 1, mk(tb.Heap.Desc(), 9, 0))
	if err := st.Commit(1, 10, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteTuple(2, 1, rid); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(2, 20, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteTuple(3, 1, rid); err == nil {
		t.Fatal("delete of already-deleted tuple must fail")
	}
	st.Abort(3)
}

func TestUpdateCreatesTwoVersions(t *testing.T) {
	st, tb := newSite(t, false)
	desc := tb.Heap.Desc()
	rid, _ := st.InsertTuple(1, 1, mk(desc, 5, 1))
	if err := st.Commit(1, 10, false, false); err != nil {
		t.Fatal(err)
	}
	rid2, err := st.UpdateTuple(2, 1, rid, mk(desc, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(2, 20, false, false); err != nil {
		t.Fatal(err)
	}
	old := readTuple(t, st, rid)
	neu := readTuple(t, st, rid2)
	if old.DelTS() != 20 || old.Values[3].I64 != 1 {
		t.Fatalf("old version wrong: %s", old)
	}
	if neu.InsTS() != 20 || neu.DelTS() != 0 || neu.Values[3].I64 != 2 {
		t.Fatalf("new version wrong: %s", neu)
	}
	if got := len(tb.Index.Lookup(5)); got != 2 {
		t.Fatalf("index has %d versions for key, want 2", got)
	}
}

func TestUpdateRejectsKeyChange(t *testing.T) {
	st, tb := newSite(t, false)
	desc := tb.Heap.Desc()
	rid, _ := st.InsertTuple(1, 1, mk(desc, 5, 1))
	if err := st.Commit(1, 10, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := st.UpdateTuple(2, 1, rid, mk(desc, 6, 2)); err == nil {
		t.Fatal("key-changing update must be rejected")
	}
	st.Abort(2)
}

func TestAbortRemovesInsertsLoglessMode(t *testing.T) {
	st, tb := newSite(t, false)
	desc := tb.Heap.Desc()
	rid, _ := st.InsertTuple(1, 1, mk(desc, 5, 1))
	if err := st.Abort(1); err != nil {
		t.Fatal(err)
	}
	if slotUsed(t, st, rid) {
		t.Fatal("aborted insert still on page")
	}
	if len(tb.Index.Lookup(5)) != 0 {
		t.Fatal("aborted insert still indexed")
	}
	if tb.Heap.MinUncommittedSeg() != -1 {
		t.Fatal("uncommitted bound survived abort")
	}
	if st.Locks.NumLocked() != 0 {
		t.Fatal("locks leak after abort")
	}
	// The freed slot is reused by the next insert.
	rid2, err := st.InsertTuple(2, 1, mk(desc, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rid2 != rid {
		t.Fatalf("slot not reused: %v vs %v", rid2, rid)
	}
	st.Abort(2)
}

func TestAbortUndoesViaLogARIESMode(t *testing.T) {
	st, tb := newSite(t, true)
	desc := tb.Heap.Desc()
	// Committed baseline tuple.
	rid0, _ := st.InsertTuple(1, 1, mk(desc, 1, 0))
	if err := st.Commit(1, 10, true, true); err != nil {
		t.Fatal(err)
	}
	// A txn that inserts and deletes, then aborts.
	rid1, _ := st.InsertTuple(2, 1, mk(desc, 2, 0))
	if _, err := st.DeleteTuple(2, 1, rid0); err != nil {
		t.Fatal(err)
	}
	if err := st.Abort(2); err != nil {
		t.Fatal(err)
	}
	if slotUsed(t, st, rid1) {
		t.Fatal("aborted insert survived ARIES rollback")
	}
	if got := readTuple(t, st, rid0); got.DelTS() != tuple.NotDeleted {
		t.Fatalf("aborted delete stamped anyway: %d", got.DelTS())
	}
	// CLRs and ABORT landed in the log.
	var sawCLR, sawAbort bool
	if err := st.Log.Iter(0, func(r *wal.Record) (bool, error) {
		switch r.Type {
		case wal.RecCLR:
			sawCLR = true
		case wal.RecAbort:
			if r.Txn == 2 {
				sawAbort = true
			}
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawCLR || !sawAbort {
		t.Fatalf("log missing CLR (%v) or ABORT (%v)", sawCLR, sawAbort)
	}
}

func TestPrepareForcesLog(t *testing.T) {
	st, tb := newSite(t, true)
	reg := obs.NewRegistry()
	st.Log.Instrument(reg)
	forces := reg.Counter("wal.force_calls")
	_, _ = tb, 0
	if _, err := st.InsertTuple(1, 1, mk(tb.Heap.Desc(), 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Prepare(1, true); err != nil {
		t.Fatal(err)
	}
	force, fsyncs := forces.Load(), reg.Counter("wal.fsyncs").Load()
	if force != 1 || fsyncs < 1 {
		t.Fatalf("prepare force accounting: force=%d fsyncs=%d", force, fsyncs)
	}
	if err := st.PrepareToCommit(1, 5, true); err != nil {
		t.Fatal(err)
	}
	force = forces.Load()
	if force != 2 {
		t.Fatalf("prepare-to-commit not counted: %d", force)
	}
	if err := st.Commit(1, 5, true, true); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareNoopWithoutLog(t *testing.T) {
	st, tb := newSite(t, false)
	if _, err := st.InsertTuple(1, 1, mk(tb.Heap.Desc(), 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Prepare(1, true); err != nil {
		t.Fatal(err)
	}
	if err := st.PrepareToCommit(1, 5, true); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(1, 5, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestCommitUnknownTxnReleasesLocks(t *testing.T) {
	st, _ := newSite(t, false)
	// Read-only txn holds a lock but has no versioning state.
	if err := st.Locks.Acquire(9, lockmgr.TableTarget(1), lockmgr.S); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(9, 5, false, false); err != nil {
		t.Fatal(err)
	}
	if st.Locks.NumLocked() != 0 {
		t.Fatal("read-only commit left locks")
	}
	if err := st.Abort(8); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRolloverUnderInserts(t *testing.T) {
	st, tb := newSite(t, false)
	desc := tb.Heap.Desc()
	perPage := tb.Heap.SlotsPerPage()
	n := perPage*4 + 3 // > one segment (4 pages)
	for i := 0; i < n; i++ {
		if _, err := st.InsertTuple(TxnID(i+1), 1, mk(desc, int64(i), 0)); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(TxnID(i+1), tuple.Timestamp(i+1), false, false); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Heap.NumSegments() != 2 {
		t.Fatalf("segments = %d, want 2", tb.Heap.NumSegments())
	}
	if tb.Index.Len() != n {
		t.Fatalf("index size = %d, want %d", tb.Index.Len(), n)
	}
}

func TestInsertAllocLoggedForRedo(t *testing.T) {
	st, tb := newSite(t, true)
	if _, err := st.InsertTuple(1, 1, mk(tb.Heap.Desc(), 1, 0)); err != nil {
		t.Fatal(err)
	}
	var sawAlloc bool
	if err := st.Log.Iter(0, func(r *wal.Record) (bool, error) {
		if r.Type == wal.RecAlloc {
			sawAlloc = true
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawAlloc {
		t.Fatal("page allocation not logged")
	}
	st.Abort(1)
}

func TestActiveTxnsTracking(t *testing.T) {
	st, tb := newSite(t, false)
	if _, err := st.InsertTuple(5, 1, mk(tb.Heap.Desc(), 1, 0)); err != nil {
		t.Fatal(err)
	}
	ids := st.ActiveTxns()
	if len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("ActiveTxns = %v", ids)
	}
	txn := st.Get(5)
	ins, dels := txn.NumPending()
	if ins != 1 || dels != 0 {
		t.Fatalf("pending = %d/%d", ins, dels)
	}
	st.Abort(5)
	if len(st.ActiveTxns()) != 0 {
		t.Fatal("txn state survived abort")
	}
}

func TestForcePolicyFlushesAtCommit(t *testing.T) {
	dir := t.TempDir()
	mgr, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	locks := lockmgr.New(500 * time.Millisecond)
	pool := buffer.New(&PageStore{Mgr: mgr}, locks, 64, buffer.NoStealForce)
	st := NewStore(mgr, pool, locks, nil)
	tb, err := mgr.Create(1, testDesc(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertTuple(1, 1, mk(tb.Heap.Desc(), 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(1, 9, false, false); err != nil {
		t.Fatal(err)
	}
	// FORCE: the committed page is already clean (flushed at commit).
	if got := len(pool.DirtyPages()); got != 0 {
		t.Fatalf("FORCE policy left %d dirty pages after commit", got)
	}
	// And the tuple is durable without any checkpoint: reopen from disk.
	if err := tb.Heap.FlushMeta(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tb.Heap.ScanDirect(tb.Heap.AllSegments(), func(_ page.RecordID, tp tuple.Tuple) bool {
		if tp.InsTS() == 9 {
			count++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("forced tuple not on disk (count=%d)", count)
	}
}

func TestVacuumBefore(t *testing.T) {
	st, tb := newSite(t, false)
	desc := tb.Heap.Desc()
	// Insert 5 keys at ts 1..5, delete keys 1–3 at ts 6–8.
	for i := int64(1); i <= 5; i++ {
		if _, err := st.InsertTuple(TxnID(i), 1, mk(desc, i, 0)); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(TxnID(i), tuple.Timestamp(i), false, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		rids := tb.Index.Lookup(i)
		if _, err := st.DeleteTuple(TxnID(100+i), 1, rids[0]); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(TxnID(100+i), tuple.Timestamp(5+i), false, false); err != nil {
			t.Fatal(err)
		}
	}
	// Horizon 7: purges versions deleted at 6 and 7 (keys 1, 2); key 3
	// (deleted at 8) survives as history.
	removed, err := st.VacuumBefore(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("vacuum removed %d, want 2", removed)
	}
	if len(tb.Index.Lookup(1)) != 0 || len(tb.Index.Lookup(2)) != 0 {
		t.Fatal("purged versions still indexed")
	}
	if len(tb.Index.Lookup(3)) != 1 {
		t.Fatal("retained deleted version lost")
	}
	// Current reads unaffected: keys 4, 5 remain.
	if got := tb.Index.Len(); got != 3 {
		t.Fatalf("index len = %d, want 3", got)
	}
	// Historical query at ts 7 (allowed: ≥ horizon) sees keys 3, 4, 5.
	// (key 3 deleted at 8 → visible at 7.) ScanDirect reads from disk, so
	// flush the pool first.
	if err := st.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tb.Heap.ScanDirect(tb.Heap.AllSegments(), func(_ page.RecordID, tp tuple.Tuple) bool {
		if tp.VisibleAt(7) {
			count++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("visible at horizon = %d, want 3", count)
	}
	// Idempotent.
	removed, err = st.VacuumBefore(1, 7)
	if err != nil || removed != 0 {
		t.Fatalf("second vacuum removed %d (%v)", removed, err)
	}
	// Freed slots are reused by fresh inserts.
	if _, err := st.InsertTuple(200, 1, mk(desc, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(200, 20, false, false); err != nil {
		t.Fatal(err)
	}
	// VacuumAll covers every table.
	if _, err := st.VacuumAll(8); err != nil {
		t.Fatal(err)
	}
	if len(tb.Index.Lookup(3)) != 0 {
		t.Fatal("VacuumAll(8) should purge key 3's old version")
	}
}
