package coord_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"harbor/internal/catalog"
	"harbor/internal/coord"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// seedMixed drives a deterministic mixed history against one table: n
// inserts (shuffled key order, seeded values) in multi-row transactions,
// then a deletion and an update wave. It returns the timestamp right after
// the insert wave, for time-travel queries. Same seed → byte-identical
// table contents and timestamps, also across clusters.
func seedMixed(t *testing.T, cl *testutil.Cluster, table int32, seed int64, n int) tuple.Timestamp {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := rng.Perm(n)
	var mid tuple.Timestamp
	commitBatch := func(apply func(tx *coord.Txn, i int) error, lo, hi int) {
		t.Helper()
		tx := cl.Coord.Begin()
		for i := lo; i < hi; i++ {
			if err := apply(tx, i); err != nil {
				t.Fatal(err)
			}
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		mid = ts
	}
	const per = 100
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		commitBatch(func(tx *coord.Txn, i int) error {
			return tx.Insert(table, mk(int64(keys[i]), rng.Int63n(1000)))
		}, lo, hi)
	}
	asOf := mid // history up to here must be reproducible by time travel
	for lo := 0; lo < n/7; lo += per {
		hi := min(lo+per, n/7)
		commitBatch(func(tx *coord.Txn, i int) error {
			return tx.DeleteKey(table, int64(i*7))
		}, lo, hi)
	}
	for lo := 0; lo < n/5; lo += per {
		hi := min(lo+per, n/5)
		commitBatch(func(tx *coord.Txn, i int) error {
			if (i*5)%7 == 0 {
				return nil // deleted above
			}
			return tx.UpdateKey(table, int64(i*5), mk(int64(i*5), -int64(i)))
		}, lo, hi)
	}
	return asOf
}

// requireSameRows asserts two scans produced identical rows in identical
// order.
func requireSameRows(t *testing.T, label string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scan returned %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Values, want[i].Values) {
			t.Fatalf("%s: row %d differs:\n  got  %v\n  want %v",
				label, i, got[i].Values, want[i].Values)
		}
	}
}

// localScan computes a healthy cluster's answer without the wire: the
// slots the coordinator plans (the replicas' coverage of the predicate's
// key range, ordered by serving site, then range low), each read
// in-process from its site's store with the query's visibility, as-of
// time and predicate narrowed to the slot, sorted by key, concatenated in
// slot order.
func localScan(t *testing.T, cl *testutil.Cluster, table int32, opt coord.QueryOptions) []tuple.Tuple {
	t.Helper()
	desc := testDesc()
	var cands []catalog.RangeCandidate
	for _, r := range cl.Catalog.Replicas(table) {
		cands = append(cands, catalog.RangeCandidate{Site: r.Site, Table: r.Table, Range: r.Range})
	}
	slots, err := catalog.CoverTarget(opt.Pred.KeyRange(desc), cands)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(slots, func(i, j int) bool {
		if slots[i].Buddy != slots[j].Buddy {
			return slots[i].Buddy < slots[j].Buddy
		}
		return slots[i].Pred.Lo < slots[j].Pred.Lo
	})
	spec := exec.ScanSpec{Table: table, Vis: exec.Current}
	if opt.Historical {
		spec.Vis, spec.AsOf = exec.Historical, opt.AsOf
	}
	var out []tuple.Tuple
	for _, slot := range slots {
		spec.Pred = opt.Pred.And(slot.Pred.Pred(desc).Terms...)
		w := cl.Workers[int(slot.Buddy)-int(testutil.WorkerSiteID(0))]
		rows, err := exec.Drain(exec.NewSeqScan(w.Store, spec))
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Key(desc) < rows[j].Key(desc) })
		out = append(out, rows...)
	}
	return out
}

// TestScanFramingEquivalence: for every query shape, the rows a scan
// streams as batch frames must equal, in the deterministic (site, key)
// order, the rows read in-process from the serving workers' stores — on a
// fully replicated table (single slot) and on a 4-way range-partitioned
// table (k-way merge).
func TestScanFramingEquivalence(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 4)
	if err := cl.CreateRangePartitionedTable(2, testDesc(), 4, 250, 500, 750); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	asOf1 := seedMixed(t, cl, 1, 42, n)
	asOf2 := seedMixed(t, cl, 2, 43, n)

	desc := testDesc()
	pred := expr.True.And(expr.Term{Field: desc.FieldIndex("v"), Op: expr.GE, Value: tuple.VInt(200)})
	cases := []struct {
		label string
		table int32
		opt   coord.QueryOptions
	}{
		{"replicated/current", 1, coord.QueryOptions{}},
		{"replicated/historical", 1, coord.QueryOptions{Historical: true, AsOf: asOf1}},
		{"replicated/predicate", 1, coord.QueryOptions{Pred: pred}},
		{"partitioned/current", 2, coord.QueryOptions{}},
		{"partitioned/historical", 2, coord.QueryOptions{Historical: true, AsOf: asOf2}},
		{"partitioned/predicate", 2, coord.QueryOptions{Pred: pred}},
	}
	for _, tc := range cases {
		got, err := cl.Coord.Scan(tc.table, tc.opt)
		if err != nil {
			t.Fatalf("%s: scan: %v", tc.label, err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: scan returned nothing; case is vacuous", tc.label)
		}
		requireSameRows(t, tc.label, got, localScan(t, cl, tc.table, tc.opt))
	}
}

// TestScanFailoverEquivalence: a scan whose serving site is killed from
// the sink — after the first delivered batch — must still produce the
// exact rows a scan of an identically-seeded healthy cluster produces:
// failover resumes the remaining key range from a buddy without dropping,
// duplicating, or reordering anything. A second scan against the
// already-degraded cluster covers the site-down-at-launch path of the same
// replanning machinery.
func TestScanFailoverEquivalence(t *testing.T) {
	const n, seed = 2000, 77
	killed := newCluster(t, txn.OptThreePC, worker.HARBOR, 3)
	healthy := newCluster(t, txn.OptThreePC, worker.HARBOR, 3)
	seedMixed(t, killed, 1, seed, n)
	seedMixed(t, healthy, 1, seed, n)

	want, err := healthy.Coord.Scan(1, coord.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("healthy scan returned nothing; test is vacuous")
	}

	// The replicated table reads from the lowest live site: worker 0.
	crashed := false
	var got []tuple.Tuple
	err = killed.Coord.ScanStream(1, coord.QueryOptions{}, func(rows []tuple.Tuple) error {
		got = append(got, rows...)
		if !crashed {
			crashed = true
			killed.Workers[0].Crash()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan with mid-stream crash: %v", err)
	}
	requireSameRows(t, "mid-stream kill", got, want)

	// Worker 0 is now down and (depending on timing) marked down: the next
	// scan plans or fails over onto the survivors from the start.
	after, err := killed.Coord.Scan(1, coord.QueryOptions{})
	if err != nil {
		t.Fatalf("scan after crash: %v", err)
	}
	requireSameRows(t, "post-kill scan", after, want)
}
