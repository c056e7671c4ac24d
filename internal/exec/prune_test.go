package exec

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"harbor/internal/expr"
	"harbor/internal/lockmgr"
	"harbor/internal/page"
	"harbor/internal/tuple"
	"harbor/internal/version"
)

// seedOrdered commits keys [0, n) in key order, 500 per transaction, and
// returns the next unused timestamp. Key order makes the heap clustered:
// each page holds one contiguous run of keys.
func seedOrdered(t testing.TB, st *version.Store, n int64) tuple.Timestamp {
	t.Helper()
	ts := tuple.Timestamp(1)
	for lo := int64(0); lo < n; lo += 500 {
		rows := make([]tuple.Tuple, 0, 500)
		for k := lo; k < min(lo+500, n); k++ {
			rows = append(rows, mk(k, k%97))
		}
		ts = seed(t, st, ts, rows...)
	}
	return ts
}

// updateRandom rewrites count seeded-random keys below n, one transaction
// each, scattering new versions over the pages at the end of the heap.
func updateRandom(t testing.TB, st *version.Store, ts tuple.Timestamp, n int64, count int, seed int64) tuple.Timestamp {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		key, tid := rng.Int63n(n), version.TxnID(1_000_000+ts)
		if _, err := UpdateByKey(st, tid, 1, key, func(tp tuple.Tuple) tuple.Tuple {
			tp.Values[3].I64++
			return tp
		}); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(tid, ts, false, false); err != nil {
			t.Fatal(err)
		}
		ts++
	}
	return ts
}

// drainBatched collects every row DrainBatches produces, cloning out of the
// reused batch.
func drainBatched(t *testing.T, s *SeqScan) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	if err := DrainBatches(s, func(b *tuple.Batch) error {
		if b.Len() == 0 {
			t.Fatal("sink received empty batch")
		}
		for _, r := range b.Rows() {
			out = append(out, r.Clone())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func keyRangePred(lo, hi int64) expr.Pred {
	return expr.KeyRange{Lo: lo, Hi: hi}.Pred(testDesc())
}

func scanPages(st *version.Store) (visited, pruned int64) {
	return st.ScanPagesVisited.Load(), st.ScanPagesPruned.Load()
}

// TestSeqScanKeyRangePruning: a key-range scan returns exactly what the
// same predicate filters out of a full scan — through Drain and through
// DrainBatches' reused batch alike — while reading only the pages whose key
// bounds meet the range; and as random updates scatter keys it degrades
// towards a full scan without ever losing a row.
func TestSeqScanKeyRangePruning(t *testing.T) {
	st := newSite(t)
	const n = 2000
	ts := seedOrdered(t, st, n)
	tb, err := st.Mgr.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(tb.Heap.NumPages())

	check := func(label string, lo, hi int64, vis Visibility, asOf tuple.Timestamp) (visited int64) {
		t.Helper()
		pred := keyRangePred(lo, hi)
		full, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: vis, AsOf: asOf}))
		if err != nil {
			t.Fatal(err)
		}
		var want []tuple.Tuple
		for _, r := range full {
			if pred.Eval(testDesc(), r) {
				want = append(want, r)
			}
		}
		v0, _ := scanPages(st)
		spec := ScanSpec{Table: 1, Vis: vis, AsOf: asOf, Pred: pred}
		got, err := Drain(NewSeqScan(st, spec))
		if err != nil {
			t.Fatal(err)
		}
		v1, _ := scanPages(st)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pruned Drain scan returned %d rows, filtered full scan %d", label, len(got), len(want))
		}
		if batched := drainBatched(t, NewSeqScan(st, spec)); !reflect.DeepEqual(batched, want) {
			t.Fatalf("%s: pruned DrainBatches scan returned %d rows, want %d", label, len(batched), len(want))
		}
		return v1 - v0
	}

	if v := check("clustered", 900, 920, Current, 0); v > 2 {
		t.Fatalf("20 adjacent keys of a clustered heap read %d pages, want <= 2 of %d", v, total)
	}
	if v := check("empty range", 5, 5, Current, 0); v != 0 {
		t.Fatalf("an empty key range read %d pages", v)
	}
	if v := check("everything", 0, n, Current, 0); v != total {
		t.Fatalf("a range covering every key read %d of %d pages", v, total)
	}
	asOf := ts - 1
	ts = updateRandom(t, st, ts, n, n/10, 3)
	check("updated/current", 900, 920, Current, 0)
	check("updated/historical", 900, 920, Historical, asOf)
	check("updated/see-deleted", 0, 40, SeeDeleted, 0)
	grown := int64(tb.Heap.NumPages())
	if v := check("updated/seam", 1990, 2100, Current, 0); v >= grown {
		t.Fatalf("after 10%% random updates a narrow range still read all %d pages", grown)
	}
}

// TestSeqScanVisitsPagesWithoutBounds: a page the key index knows nothing
// about — dropped at quarantine, or bulk-loaded and not yet indexed — is
// read whatever the predicate, because nothing vouches for its contents.
func TestSeqScanVisitsPagesWithoutBounds(t *testing.T) {
	st := newSite(t)
	seedOrdered(t, st, 2000)
	tb, err := st.Mgr.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := ScanSpec{Table: 1, Vis: Current, Pred: keyRangePred(900, 920)}
	count := func() (rows int, visited int64) {
		t.Helper()
		v0, _ := scanPages(st)
		got, err := Drain(NewSeqScan(st, spec))
		if err != nil {
			t.Fatal(err)
		}
		v1, _ := scanPages(st)
		return len(got), v1 - v0
	}
	rows, before := count()
	if rows != 20 {
		t.Fatalf("range scan returned %d rows, want 20", rows)
	}
	// Page 0 holds the lowest keys, far from the range.
	tb.Index.DropPage(page.ID{Table: 1, PageNo: 0})
	if rows, after := count(); rows != 20 || after != before+1 {
		t.Fatalf("after DropPage(0): %d rows over %d pages, want 20 rows over %d", rows, after, before+1)
	}
	// Empty page 0 and give it back to the heap, as a purge does; a bulk load
	// then reuses the page number for other keys. A bulk-loaded segment is
	// visible from its meta replace, before anyone indexes it, so the page's
	// old bounds must be gone by now — forgotten with its last record id —
	// or the scan would pass over rows it owes.
	p0 := page.ID{Table: 1, PageNo: 0}
	if err := st.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Index.Rebuild(tb.Heap); err != nil { // restore what DropPage forgot
		t.Fatal(err)
	}
	lo, hi, _ := tb.Index.PageBounds(p0)
	if hi-lo < 50 {
		t.Fatalf("page 0 bounds [%d,%d]; expected a full page of keys", lo, hi)
	}
	for k := lo; k <= hi; k++ {
		if _, err := DeleteByKey(st, 77, 1, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(77, 50, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := st.VacuumAll(50); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tb.Index.PageBounds(p0); ok {
		t.Fatal("page 0 kept its bounds after its last tuple was vacuumed")
	}
	if err := st.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st.Pool.Discard(p0)
	if err := tb.Heap.ReleasePages([]int32{0}); err != nil {
		t.Fatal(err)
	}
	late := make([]tuple.Tuple, 0, 2)
	for _, k := range []int64{905, 5000} {
		tp := mk(k, 1)
		tp.SetInsTS(1)
		late = append(late, tp)
	}
	if _, err := tb.Heap.BulkLoadSegment(late); err != nil {
		t.Fatal(err)
	}
	if got := tb.Heap.SegmentPages(tb.Heap.LastSegment()); len(got) != 1 || got[0] != 0 {
		t.Fatalf("bulk load landed on pages %v, want the released page 0", got)
	}
	if rows, _ := count(); rows != 21 {
		t.Fatalf("range scan over an unindexed bulk segment returned %d rows, want 21", rows)
	}
	if err := tb.Index.Rebuild(tb.Heap); err != nil {
		t.Fatal(err)
	}
	if rows, _ := count(); rows != 21 {
		t.Fatalf("range scan after Rebuild returned %d rows, want 21", rows)
	}
}

// TestLockedPrunedScanLocksSkippedPages: pruning decides what a locked
// scan reads, not what it locks — a skipped page stays S-locked, so no
// writer can slip a qualifying key into it before the reader finishes.
func TestLockedPrunedScanLocksSkippedPages(t *testing.T) {
	st := newSite(t)
	seedOrdered(t, st, 2000)
	tb, err := st.Mgr.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	_, p0 := scanPages(st)
	rows, err := Drain(NewSeqScan(st, ScanSpec{Table: 1, Vis: Current, Locked: true, Txn: 42, Pred: keyRangePred(900, 920)}))
	if err != nil || len(rows) != 20 {
		t.Fatalf("locked range scan: %d rows, %v", len(rows), err)
	}
	defer st.Locks.ReleaseAll(42)
	if _, p1 := scanPages(st); p1 == p0 {
		t.Fatal("scan pruned nothing; test is vacuous")
	}
	for pno := int32(0); pno < tb.Heap.NumPages(); pno++ {
		if !st.Locks.Has(42, lockmgr.PageTarget(1, pno), lockmgr.S) {
			t.Fatalf("locked pruned scan left page %d unlocked", pno)
		}
	}
}

// TestPrunedScanConcurrentWithInserts: bounds are widened before a tuple is
// published, so a pruned scan racing a committer never misses a key that
// was committed before the scan began.
func TestPrunedScanConcurrentWithInserts(t *testing.T) {
	st := newSite(t)
	ts := seedOrdered(t, st, 2000)
	const base, total = 10000, 300
	var committed atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := int64(0); i < total; i++ {
			tid := version.TxnID(5_000_000 + i)
			if _, err := st.InsertTuple(tid, 1, mk(base+i, i)); err != nil {
				done <- err
				return
			}
			if err := st.Commit(tid, ts+tuple.Timestamp(i), false, false); err != nil {
				done <- err
				return
			}
			committed.Store(i + 1)
		}
		done <- nil
	}()
	spec := ScanSpec{Table: 1, Vis: Current, Pred: keyRangePred(base, base+total)}
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		owed := committed.Load()
		rows, err := Drain(NewSeqScan(st, spec))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) < owed {
			t.Fatalf("pruned scan returned %d rows; %d were committed before it began", len(rows), owed)
		}
	}
	if _, pruned := scanPages(st); pruned == 0 {
		t.Fatal("scans pruned nothing; test is vacuous")
	}
}

var benchRows int

// BenchmarkSeqScanKeyRange: a 1 % key range (250 keys) read from a 25 000-row
// heap loaded in key order, and from the same heap after 10 % of its keys
// were updated at random. pages/op is the pages the scan read; pruned/op the
// pages its key bounds let it pass over.
func BenchmarkSeqScanKeyRange(b *testing.B) {
	const n = 25000
	for _, bc := range []struct {
		name    string
		updates int
	}{{"clustered", 0}, {"updated10pct", n / 10}} {
		b.Run(bc.name, func(b *testing.B) {
			st := newSiteFrames(b, 1024)
			ts := seedOrdered(b, st, n)
			updateRandom(b, st, ts, n, bc.updates, 1)
			spec := ScanSpec{Table: 1, Vis: Historical, AsOf: 1 << 40, Pred: keyRangePred(12000, 12250)}
			v0, p0 := scanPages(st)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := 0
				err := DrainBatches(NewSeqScan(st, spec), func(bt *tuple.Batch) error {
					rows += bt.Len()
					return nil
				})
				if err != nil || rows != 250 {
					b.Fatalf("range scan: %d rows, %v", rows, err)
				}
				benchRows = rows
			}
			b.StopTimer()
			v1, p1 := scanPages(st)
			b.ReportMetric(float64(v1-v0)/float64(b.N), "pages/op")
			b.ReportMetric(float64(p1-p0)/float64(b.N), "pruned/op")
		})
	}
}
