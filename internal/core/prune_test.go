package core_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"harbor/internal/coord"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/storage"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// randomKeyPred draws one key predicate over a table whose keys lie in
// [0, n) and whose partitions meet at seams: an equality, a half-open,
// closed or one-sided range, a range straddling a seam, a contradiction, or
// one at the int64 extremes — sometimes with a non-key term beside it.
func randomKeyPred(rng *rand.Rand, n int64, seams []int64) expr.Pred {
	desc := testDesc()
	key := func(op expr.Op, v int64) expr.Term {
		return expr.Term{Field: desc.Key, Op: op, Value: tuple.VInt(v)}
	}
	lo := rng.Int63n(n)
	hi := lo + rng.Int63n(n/8+1)
	var p expr.Pred
	switch rng.Intn(9) {
	case 0:
		p = expr.True.And(key(expr.EQ, lo))
	case 1:
		p = expr.True.And(key(expr.GE, lo), key(expr.LT, hi))
	case 2:
		p = expr.True.And(key(expr.GT, lo), key(expr.LE, hi))
	case 3:
		p = expr.True.And(key(expr.GE, n-n/10+rng.Int63n(n/10)))
	case 4:
		p = expr.True.And(key(expr.LT, rng.Int63n(n/10)+1))
	case 5:
		s := seams[rng.Intn(len(seams))]
		p = expr.True.And(key(expr.GE, s-rng.Int63n(30)), key(expr.LE, s+rng.Int63n(30)))
	case 6:
		p = expr.True.And(key(expr.GE, hi+1), key(expr.LT, lo)) // nothing qualifies
	case 7:
		p = [...]expr.Pred{
			expr.True.And(key(expr.GE, math.MinInt64), key(expr.LE, lo)),
			expr.True.And(key(expr.GE, lo), key(expr.LE, math.MaxInt64)),
			expr.True.And(key(expr.GT, math.MaxInt64)),
			expr.True.And(key(expr.LT, math.MinInt64)),
			expr.True.And(key(expr.EQ, math.MaxInt64)),
		}[rng.Intn(5)]
	case 8:
		p = expr.True.And(key(expr.NE, lo), key(expr.GE, lo-5), key(expr.LE, lo+5))
	}
	if rng.Intn(3) == 0 {
		p = p.And(expr.Term{Field: desc.FieldIndex("v"), Op: expr.GE, Value: tuple.VInt(rng.Int63n(50))})
	}
	return p
}

// sameRows compares two results row for row; nil and empty are the same.
func sameRows(a, b []tuple.Tuple) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// requirePrunedMatchesFiltered runs rounds random key predicates against
// table and requires every pruned ScanStream to equal — same rows, same
// order — the unpredicated scan filtered here, and every pruned Aggregate to
// equal a local HashAgg over those rows.
func requirePrunedMatchesFiltered(t *testing.T, cl *testutil.Cluster, label string, table int32,
	opt coord.QueryOptions, rng *rand.Rand, n int64, seams []int64, rounds int) {
	t.Helper()
	desc := testDesc()
	full, err := cl.Coord.Scan(table, opt)
	if err != nil {
		t.Fatalf("%s: unpredicated scan: %v", label, err)
	}
	if len(full) == 0 {
		t.Fatalf("%s: table is empty; test is vacuous", label)
	}
	plan := exec.AggPlan{GroupField: desc.FieldIndex("v"), Aggs: []exec.AggSpec{
		{Fn: exec.Count}, {Fn: exec.Sum, Field: desc.Key}, {Fn: exec.Max, Field: desc.Key}}}
	matched := 0
	for i := 0; i < rounds; i++ {
		opt.Pred = randomKeyPred(rng, n, seams)
		var want []tuple.Tuple
		for _, r := range full {
			if opt.Pred.Eval(desc, r) {
				want = append(want, r)
			}
		}
		matched += len(want)
		got, err := cl.Coord.Scan(table, opt)
		if err != nil {
			t.Fatalf("%s: scan %v: %v", label, opt.Pred, err)
		}
		if !sameRows(got, want) {
			t.Fatalf("%s: scan %v returned %d rows, filtered full scan %d", label, opt.Pred, len(got), len(want))
		}
		wantAgg, err := exec.Drain(&exec.HashAgg{Child: &exec.SliceScan{Schema: desc, Rows: want},
			GroupField: plan.GroupField, Aggs: plan.Aggs})
		if err != nil {
			t.Fatal(err)
		}
		gotAgg, err := cl.Coord.Aggregate(table, opt, plan)
		if err != nil {
			t.Fatalf("%s: aggregate %v: %v", label, opt.Pred, err)
		}
		if !sameRows(gotAgg, wantAgg) {
			t.Fatalf("%s: aggregate %v returned %v, want %v", label, opt.Pred, gotAgg, wantAgg)
		}
	}
	if matched == 0 {
		t.Fatalf("%s: no predicate matched a row; test is vacuous", label)
	}
}

// loadOrdered commits keys [lo, hi) of table in key order, 100 per
// transaction, so each page holds one run of keys and pruning has work to do.
func loadOrdered(t *testing.T, cl *testutil.Cluster, table int32, lo, hi int64, rng *rand.Rand) tuple.Timestamp {
	t.Helper()
	var ts tuple.Timestamp
	for ; lo < hi; lo += 100 {
		tx := cl.Coord.Begin()
		for k := lo; k < min(lo+100, hi); k++ {
			if err := tx.Insert(table, mk(k, rng.Int63n(50))); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if ts, err = tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return ts
}

// TestKeyRangePruningEquivalence is the pruned-vs-filtered property test: on
// a replicated and a 4-way range-partitioned table, for current and
// historical reads, a read with a key predicate — planned onto the owning
// sites only and skipping pages by their key bounds — answers exactly as the
// unpredicated read filtered afterwards; after a key-ordered load, after
// random updates and deletes have scattered versions over the heap, after a
// vacuum has removed versions, and after a purge has released pages that
// later inserts reuse under other keys.
func TestKeyRangePruningEquivalence(t *testing.T) {
	const n, rounds = 2000, 25
	seams := []int64{500, 1000, 1500}
	cl := newCluster(t, 4) // table 1: replicated on every worker
	if err := cl.CreateRangePartitionedTable(2, testDesc(), 4, seams...); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260925))
	tables := []int32{1, 2}
	asOf := map[int32]tuple.Timestamp{}
	check := func(stage string) {
		t.Helper()
		for _, table := range tables {
			name := map[int32]string{1: "replicated", 2: "partitioned"}[table]
			requirePrunedMatchesFiltered(t, cl, stage+"/"+name+"/current", table,
				coord.QueryOptions{}, rng, n, seams, rounds)
			requirePrunedMatchesFiltered(t, cl, stage+"/"+name+"/historical", table,
				coord.QueryOptions{Historical: true, AsOf: asOf[table]}, rng, n, seams, rounds)
		}
	}

	for _, table := range tables {
		asOf[table] = loadOrdered(t, cl, table, 0, n, rng)
	}
	check("loaded")
	for _, w := range cl.Workers {
		if w.Obs().Counter("exec.scan.pages_pruned").Load() == 0 {
			t.Fatalf("site %d pruned no page of a key-ordered heap; test is vacuous", w.Cfg.Site)
		}
	}

	// Updates append new versions far from their key's page; deletes leave
	// dead versions behind. The historical reads stay as of the load.
	for _, table := range tables {
		for i := 0; i < 300; i += 50 {
			tx := cl.Coord.Begin()
			for j := 0; j < 50; j++ {
				key := rng.Int63n(n)
				var err error
				if j%5 == 0 {
					err = tx.DeleteKey(table, key)
				} else {
					err = tx.UpdateKey(table, key, mk(key, rng.Int63n(50)))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("updated")

	horizon := cl.Coord.Authority.HWM()
	vacuumed := 0
	for _, w := range cl.Workers {
		k, err := w.Store.VacuumAll(horizon)
		if err != nil {
			t.Fatal(err)
		}
		vacuumed += k
	}
	if vacuumed == 0 {
		t.Fatal("vacuum removed nothing; stage is vacuous")
	}
	for _, table := range tables {
		asOf[table] = horizon // older history is gone
	}
	check("vacuumed")

	// Purge a range wide enough to empty whole pages, which the heap then
	// hands to the inserts that follow — the same page numbers, other keys.
	purge := expr.KeyRange{Lo: 300, Hi: 1200}
	released := int64(0)
	for _, w := range cl.Workers {
		for _, table := range tables {
			if _, err := w.PurgeRange(table, purge); err != nil {
				t.Fatal(err)
			}
		}
		released += w.Obs().Counter("worker.purge.pages_released").Load()
	}
	if released == 0 {
		t.Fatal("purge released no page; the reuse stage is vacuous")
	}
	check("purged")
	for _, table := range tables {
		loadOrdered(t, cl, table, 1900, 1900+900, rng) // past n: new keys on old pages
		asOf[table] = loadOrdered(t, cl, table, 300, 700, rng)
	}
	check("reused")
}

// TestMidRecoveryPrunedReadMatchesHealthy: with both replicas mid-recovery
// and each serving a complementary half of the key space, a read with a key
// predicate is composed from just the segments its range touches — and
// still answers exactly as the healthy cluster's filtered full read did.
func TestMidRecoveryPrunedReadMatchesHealthy(t *testing.T) {
	const n, seam = 400, 200
	cl := newCluster(t, 2)
	rng := rand.New(rand.NewSource(7))
	preTS := loadOrdered(t, cl, 1, 0, n, rng)
	healthy, err := cl.Coord.Scan(1, coord.QueryOptions{Historical: true, AsOf: preTS})
	if err != nil || len(healthy) != n {
		t.Fatalf("healthy baseline: %d rows, %v", len(healthy), err)
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Workers[0].Crash()
	cl.Workers[1].Crash()
	cl.Coord.MarkDown(testutil.WorkerSiteID(0))
	cl.Coord.MarkDown(testutil.WorkerSiteID(1))
	w0, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := cl.RestartWorker(1)
	if err != nil {
		t.Fatal(err)
	}
	full := expr.FullKeyRange()
	w0.SetObjectSegments(1, []int64{seam}, worker.ObjNeedsRecovery, 0)
	w0.SetSegmentState(1, expr.KeyRange{Lo: full.Lo, Hi: seam}, worker.ObjHistoricalCopy, preTS)
	w1.SetObjectSegments(1, []int64{seam}, worker.ObjNeedsRecovery, 0)
	w1.SetSegmentState(1, expr.KeyRange{Lo: seam, Hi: full.Hi}, worker.ObjHistoricalCopy, preTS)

	desc := testDesc()
	opt := coord.QueryOptions{Historical: true, AsOf: preTS}
	for i := 0; i < 60; i++ {
		opt.Pred = randomKeyPred(rng, n, []int64{seam})
		var want []tuple.Tuple
		for _, r := range healthy {
			if opt.Pred.Eval(desc, r) {
				want = append(want, r)
			}
		}
		got, err := cl.Coord.Scan(1, opt)
		if err != nil {
			t.Fatalf("segment-composed read %v: %v", opt.Pred, err)
		}
		if !sameRows(got, want) {
			t.Fatalf("segment-composed read %v returned %d rows, healthy filtered %d", opt.Pred, len(got), len(want))
		}
	}
	// A range inside w0's half never needs w1's segment, whatever its state.
	w1.SetSegmentState(1, expr.KeyRange{Lo: seam, Hi: full.Hi}, worker.ObjNeedsRecovery, 0)
	time.Sleep(150 * time.Millisecond) // let the coordinator's readiness probe cache expire
	opt.Pred = expr.KeyRange{Lo: 10, Hi: 60}.Pred(desc)
	got, err := cl.Coord.Scan(1, opt)
	if err != nil || len(got) != 50 {
		t.Fatalf("read of a recovered range beside an unrecovered one: %d rows, %v", len(got), err)
	}
	if _, err := cl.Coord.Scan(1, coord.QueryOptions{Historical: true, AsOf: preTS}); err == nil {
		t.Fatal("a full read over an unrecovered segment should have no coverage")
	}
}

// TestPrunedScanSurfacesTornPageInRange: a torn page inside the queried key
// range is not silently skipped — the pruned scan trips its CRC, the worker
// answers wire.ErrRemoteCorrupt and arms the repair, the coordinator fails
// the slot over to the buddy for the full answer — and once the page is
// repaired the site serves the same range itself. A range that does not
// touch the page reads around it undisturbed.
func TestPrunedScanSurfacesTornPageInRange(t *testing.T) {
	const n = 2000
	cl := newCluster(t, 2)
	rng := rand.New(rand.NewSource(11))
	asOf := loadOrdered(t, cl, 1, 0, n, rng)
	desc := testDesc()
	inRange := coord.QueryOptions{Historical: true, AsOf: asOf, Pred: expr.KeyRange{Lo: 990, Hi: 1010}.Pred(desc)}
	want, err := cl.Coord.Scan(1, inRange)
	if err != nil || len(want) != 20 {
		t.Fatalf("baseline range read: %d rows, %v", len(want), err)
	}

	w := cl.Workers[0]
	if err := w.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	tb, err := w.Mgr.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	torn := tb.Index.Lookup(1000)[0].Page
	w.Pool.DiscardAll()
	corruptHeapPage(t, w.Cfg.Dir, 1, torn.PageNo)

	elsewhere := exec.ScanSpec{Table: 1, Vis: exec.Historical, AsOf: asOf, Pred: expr.KeyRange{Lo: 100, Hi: 120}.Pred(desc)}
	if rows, err := exec.Drain(exec.NewSeqScan(w.Store, elsewhere)); err != nil || len(rows) != 20 {
		t.Fatalf("range scan away from the torn page: %d rows, %v", len(rows), err)
	}
	if n := w.Obs().Counter("storage.corrupt_pages").Load(); n != 0 {
		t.Fatalf("a scan that never needed the torn page read it (%d corrupt reads)", n)
	}

	resp := drainRecoveryScan(t, w.Addr(), &wire.Msg{
		Type: wire.MsgScan, Txn: 1 << 40, Table: 1, Vis: uint8(exec.Historical), TS: asOf,
		Pred: inRange.Pred.Terms, KeyLo: 990, KeyHi: 1010,
	})
	if err := resp.Err(); !errors.Is(err, wire.ErrRemoteCorrupt) {
		t.Fatalf("pruned scan over a torn page answered %v (%v), want ErrRemoteCorrupt", resp.Type, err)
	}

	inRange.PreferSite = testutil.WorkerSiteID(0)
	got, err := cl.Coord.Scan(1, inRange)
	if err != nil {
		t.Fatalf("range read over a torn page should fail over to the buddy: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failed-over range read returned %d rows, want %d", len(got), len(want))
	}

	deadline := time.Now().Add(5 * time.Second)
	for w.Obs().Counter("recover.page_repairs").Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("online repair did not run (errors=%d)", w.Obs().Counter("recover.page_repair_errors").Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	rows, err := exec.Drain(exec.NewSeqScan(w.Store, exec.ScanSpec{
		Table: 1, Vis: exec.Historical, AsOf: asOf, Pred: inRange.Pred}))
	if err != nil {
		t.Fatalf("range scan on the repaired site: %v", err)
	}
	if len(rows) != len(want) {
		t.Fatalf("repaired site returned %d rows of the range, want %d", len(rows), len(want))
	}
	if got, want := byteSnapshot(t, cl.Workers[0], 1), byteSnapshot(t, cl.Workers[1], 1); got != want {
		t.Fatal("replicas diverged after online repair")
	}

	// Tear the page again under a stopped site. The index rebuilt at reopen
	// cannot read it, so the page has no bounds — and a page without bounds
	// is read whatever the predicate: both ranges now find the damage
	// instead of answering short.
	if err := w.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	torn = tb.Index.Lookup(1000)[0].Page
	w.Crash()
	corruptHeapPage(t, w.Cfg.Dir, 1, torn.PageNo)
	if w, err = cl.RestartWorker(0); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []exec.ScanSpec{elsewhere, {Table: 1, Vis: exec.Historical, AsOf: asOf, Pred: inRange.Pred}} {
		if rows, err := exec.Drain(exec.NewSeqScan(w.Store, spec)); !errors.Is(err, storage.ErrPageCorrupt) {
			t.Fatalf("scan %v over a page torn before reopen: %d rows, %v; want ErrPageCorrupt", spec.Pred, len(rows), err)
		}
	}
}
