package exec

import (
	"reflect"
	"testing"
	"time"

	"harbor/internal/buffer"
	"harbor/internal/expr"
	"harbor/internal/lockmgr"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/version"
)

func testDesc() *tuple.Desc {
	return tuple.MustDesc("id",
		tuple.FieldDef{Name: "id", Type: tuple.Int64},
		tuple.FieldDef{Name: "v", Type: tuple.Int32},
	)
}

func newSite(t *testing.T) *version.Store { return newSiteFrames(t, 128) }

func newSiteFrames(t testing.TB, frames int) *version.Store {
	t.Helper()
	mgr, err := storage.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	locks := lockmgr.New(300 * time.Millisecond)
	pool := buffer.New(&version.PageStore{Mgr: mgr}, locks, frames, buffer.StealNoForce)
	st := version.NewStore(mgr, pool, locks, nil)
	if _, err := mgr.Create(1, testDesc(), 4); err != nil {
		t.Fatal(err)
	}
	return st
}

func mk(id, v int64) tuple.Tuple {
	return tuple.MustMake(testDesc(), tuple.VInt(id), tuple.VInt(v))
}

// seed inserts rows committing each batch at consecutive timestamps
// starting at ts0; returns the next unused timestamp.
func seed(t testing.TB, st *version.Store, ts0 tuple.Timestamp, rows ...tuple.Tuple) tuple.Timestamp {
	t.Helper()
	tid := version.TxnID(ts0 * 1000)
	for _, r := range rows {
		if _, err := st.InsertTuple(tid, 1, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(tid, ts0, false, false); err != nil {
		t.Fatal(err)
	}
	return ts0 + 1
}

func ids(ts []tuple.Tuple) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.Values[2].I64
	}
	return out
}

func TestSeqScanCurrentVisibility(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(1, 10), mk(2, 20))
	// Delete key 1 at ts 2.
	if ok, err := DeleteByKey(st, 500, 1, 1); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := st.Commit(500, 2, false, false); err != nil {
		t.Fatal(err)
	}
	// An uncommitted insert must be invisible.
	if _, err := st.InsertTuple(501, 1, mk(3, 30)); err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Current}))
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(rows); !reflect.DeepEqual(got, []int64{2}) {
		t.Fatalf("current scan ids = %v", got)
	}
	st.Abort(501)
}

func TestSeqScanHistoricalTimeTravel(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(1, 10))
	seed(t, st, 2, mk(2, 20))
	if ok, err := DeleteByKey(st, 500, 1, 1); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := st.Commit(500, 3, false, false); err != nil {
		t.Fatal(err)
	}
	scanAt := func(asOf tuple.Timestamp) []int64 {
		rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Historical, AsOf: asOf}))
		if err != nil {
			t.Fatal(err)
		}
		return ids(rows)
	}
	if got := scanAt(1); !reflect.DeepEqual(got, []int64{1}) {
		t.Fatalf("asOf 1: %v", got)
	}
	if got := scanAt(2); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("asOf 2: %v", got)
	}
	if got := scanAt(3); !reflect.DeepEqual(got, []int64{2}) {
		t.Fatalf("asOf 3: %v", got)
	}
	// Historical reads mask the future deletion timestamp.
	rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Historical, AsOf: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DelTS() != tuple.NotDeleted {
			t.Fatalf("historical read leaked future deletion: %s", r)
		}
	}
}

func TestSeqScanSeeDeleted(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(1, 10), mk(2, 20))
	if ok, err := DeleteByKey(st, 500, 1, 1); err != nil || !ok {
		t.Fatal(err)
	}
	if err := st.Commit(500, 2, false, false); err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: SeeDeleted}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("see-deleted scan found %d rows, want 2", len(rows))
	}
	// And with the deletion-time predicate of recovery queries.
	desc := testDesc()
	delGT := expr.True.And(expr.Term{Field: tuple.FieldDelTS, Op: expr.GT, Value: tuple.VInt(0)})
	rows, err = Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: SeeDeleted, Pred: delGT}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key(desc) != 1 {
		t.Fatalf("deleted-only scan: %v", rows)
	}
}

func TestSeeDeletedHistoricalMasksLateActivity(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(1, 10))
	// Delete key 1 at ts 5 (after the HWM below) and insert key 2 at ts 6.
	if ok, err := DeleteByKey(st, 500, 1, 1); err != nil || !ok {
		t.Fatal(err)
	}
	if err := st.Commit(500, 5, false, false); err != nil {
		t.Fatal(err)
	}
	seed(t, st, 6, mk(2, 20))
	rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: SeeDeleted, AsOf: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("SEE DELETED HISTORICAL leaked later insert: %v", rows)
	}
	if rows[0].DelTS() != tuple.NotDeleted {
		t.Fatalf("deletion after HWM visible: %s", rows[0])
	}
}

func TestScanSegmentsRestriction(t *testing.T) {
	st := newSite(t)
	tb, _ := st.Mgr.Get(1)
	perSeg := tb.Heap.SlotsPerPage() * 4
	ts := tuple.Timestamp(1)
	for i := 0; i < perSeg+5; i++ {
		ts = seed(t, st, ts, mk(int64(i), 0))
	}
	if tb.Heap.NumSegments() != 2 {
		t.Fatalf("segments = %d", tb.Heap.NumSegments())
	}
	rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Current, Segments: SegmentsOf([]int32{1})}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("segment-restricted scan: %d rows, want 5", len(rows))
	}

	// An explicitly empty selection — the shape of a recovery plan whose
	// timestamp bounds pruned every segment — scans nothing, while the zero
	// value still scans everything.
	rows, err = Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Current, Segments: SegmentsOf(nil)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("everything-pruned scan: %d rows, want 0", len(rows))
	}
	rows, err = Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Current}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != perSeg+5 {
		t.Fatalf("all-segments scan: %d rows, want %d", len(rows), perSeg+5)
	}
}

// aggregate runs plan over a current scan of table 1 the way a worker and
// the coordinator split it: SeqScan batches fold into a GroupTable, which
// AggPlan.Rows finalises in group-key order.
func aggregate(t *testing.T, st *version.Store, plan AggPlan) []tuple.Tuple {
	t.Helper()
	gt := NewGroupTable(plan.GroupField, plan.Partials())
	if err := DrainBatches(NewSeqScan(st, ScanSpec{Table: 1, Vis: Current}), func(b *tuple.Batch) error {
		gt.AddBatch(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return plan.Rows(gt)
}

func TestScanGroupTableAggregate(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(1, 10), mk(2, 10), mk(3, 20), mk(4, 20), mk(5, 20))
	desc := testDesc()
	rows := aggregate(t, st, AggPlan{
		GroupField: desc.FieldIndex("v"),
		Aggs: []AggSpec{
			{Fn: Count},
			{Fn: Sum, Field: desc.FieldIndex("id")},
			{Fn: Min, Field: desc.FieldIndex("id")},
			{Fn: Max, Field: desc.FieldIndex("id")},
			{Fn: Avg, Field: desc.FieldIndex("id")},
		},
	})
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	// group 10: ids {1,2}; group 20: ids {3,4,5}
	g10 := rows[0]
	if g10.Values[0].I64 != 10 || g10.Values[1].I64 != 2 || g10.Values[2].I64 != 3 ||
		g10.Values[3].I64 != 1 || g10.Values[4].I64 != 2 || g10.Values[5].I64 != 1 {
		t.Fatalf("group 10: %v", g10.Values)
	}
	g20 := rows[1]
	if g20.Values[0].I64 != 20 || g20.Values[1].I64 != 3 || g20.Values[2].I64 != 12 ||
		g20.Values[3].I64 != 3 || g20.Values[4].I64 != 5 || g20.Values[5].I64 != 4 {
		t.Fatalf("group 20: %v", g20.Values)
	}
}

func TestScanGroupTableGlobalGroup(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(1, 1), mk(2, 2), mk(3, 3))
	rows := aggregate(t, st, AggPlan{GroupField: -1, Aggs: []AggSpec{{Fn: Count}}})
	if len(rows) != 1 || rows[0].Values[0].I64 != 3 {
		t.Fatalf("global count: %v", rows)
	}
}

func TestIndexLookupVersions(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(5, 1))
	if ok, err := UpdateByKey(st, 500, 1, 5, func(t tuple.Tuple) tuple.Tuple {
		t.Values[3] = tuple.VInt(2)
		return t
	}); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	if err := st.Commit(500, 2, false, false); err != nil {
		t.Fatal(err)
	}
	cur, _, err := IndexLookup(st, 1, 5, Current, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != 1 || cur[0].Values[3].I64 != 2 {
		t.Fatalf("current lookup: %v", cur)
	}
	old, _, err := IndexLookup(st, 1, 5, Historical, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 1 || old[0].Values[3].I64 != 1 {
		t.Fatalf("historical lookup: %v", old)
	}
	all, _, err := IndexLookup(st, 1, 5, SeeDeleted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("see-deleted lookup found %d versions", len(all))
	}
	none, _, err := IndexLookup(st, 1, 99, Current, 0)
	if err != nil || len(none) != 0 {
		t.Fatalf("missing key lookup: %v %v", none, err)
	}
}

func TestDeleteByKeyAndUpdateByKey(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(1, 10), mk(2, 20), mk(3, 30))
	desc := testDesc()
	for _, key := range []int64{2, 3} {
		if ok, err := DeleteByKey(st, 500, 1, key); err != nil || !ok {
			t.Fatalf("DeleteByKey(%d): %v %v", key, ok, err)
		}
	}
	if ok, err := DeleteByKey(st, 500, 1, 99); err != nil || ok {
		t.Fatalf("DeleteByKey of a missing key: %v %v", ok, err)
	}
	if err := st.Commit(500, 2, false, false); err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Current}))
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(rows); !reflect.DeepEqual(got, []int64{1}) {
		t.Fatalf("after delete: %v", got)
	}

	if ok, err := UpdateByKey(st, 501, 1, 1, func(t tuple.Tuple) tuple.Tuple {
		t.Values[desc.FieldIndex("v")] = tuple.VInt(99)
		return t
	}); err != nil || !ok {
		t.Fatalf("UpdateByKey: %v %v", ok, err)
	}
	if err := st.Commit(501, 3, false, false); err != nil {
		t.Fatal(err)
	}
	cur, _, err := IndexLookup(st, 1, 1, Current, 0)
	if err != nil || len(cur) != 1 || cur[0].Values[3].I64 != 99 {
		t.Fatalf("after update: %v %v", cur, err)
	}
}

func TestLockedScanTakesReadLocks(t *testing.T) {
	st := newSite(t)
	seed(t, st, 1, mk(1, 1))
	rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Current, Locked: true, Txn: 42}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !st.Locks.Has(42, lockmgr.PageTarget(1, 0), lockmgr.S) {
		t.Fatal("locked scan did not take page S lock")
	}
	st.Locks.ReleaseAll(42)
}
