package harbor_test

import (
	"math"
	"testing"
	"time"

	"harbor"
	"harbor/internal/exec"
)

func startCluster(t *testing.T, opts harbor.Options) *harbor.Cluster {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	c, err := harbor.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

var productSchema = harbor.MustSchema("id",
	harbor.Int64Field("id"),
	harbor.CharField("name", 16),
	harbor.Int32Field("price"),
)

func TestPublicAPIRoundTrip(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 2})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(1), harbor.Str("Colgate"), harbor.Int(3))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(2), harbor.Str("iPod"), harbor.Int(299))); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ts == 0 {
		t.Fatal("no commit time")
	}
	rows, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Predicate query.
	rows, err = c.Query(1, harbor.Query{
		Where: harbor.Where(productSchema, "price", harbor.GE, harbor.Int(100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Values[productSchema.FieldIndex("name")].Str != "iPod" {
		t.Fatalf("filtered rows: %v", rows)
	}
}

func TestPublicAPITimeTravel(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 2})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(1), harbor.Str("Colgate"), harbor.Int(3))); err != nil {
		t.Fatal(err)
	}
	ts1, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	tx2 := c.Begin()
	if err := tx2.DeleteKey(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	now, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(now) != 0 {
		t.Fatalf("current rows = %d", len(now))
	}
	old, err := c.Query(1, harbor.Query{AsOf: ts1})
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 1 {
		t.Fatalf("historical rows = %d", len(old))
	}
	if c.Now() == 0 {
		t.Fatal("HWM never advanced")
	}
}

func TestPublicAPICrashAndRecover(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 2, CheckpointEvery: time.Hour})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		tx := c.Begin()
		if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(i), harbor.Str("x"), harbor.Int(1))); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c.CrashWorker(0)
	// Still writable with one worker down.
	tx := c.Begin()
	if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(21), harbor.Str("y"), harbor.Int(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverWorker(0); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("rows after recovery = %d", len(rows))
	}
	if _, err := c.RecoverWorker(0); err == nil {
		t.Fatal("recovering a live worker should fail")
	}
}

func TestPublicAPIPartitionedTable(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 3})
	// Full copy on worker 0; halves on workers 1 and 2 (the §5.1 example
	// shape). Different segment sizes prove non-identical replicas work.
	err := c.CreateTableOn(1, productSchema,
		harbor.Replica{Worker: 0, SegPages: 128},
		harbor.Replica{Worker: 1, KeyLo: math.MinInt64, KeyHi: 1000, SegPages: 64},
		harbor.Replica{Worker: 2, KeyLo: 1000, KeyHi: math.MaxInt64, SegPages: 32},
	)
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	for _, id := range []int64{5, 999, 1000, 5000} {
		if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(id), harbor.Str("p"), harbor.Int(1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Crash the full copy; the partitioned replicas must cover reads.
	c.CrashWorker(0)
	rows, err = c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows with full copy down = %d", len(rows))
	}
	// Recover the full copy from the two partitioned buddies.
	stats, err := c.RecoverWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Objects) != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestPublicAPIUpdate(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 2})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(4), harbor.Str("Elliss"), harbor.Int(20))); err != nil {
		t.Fatal(err)
	}
	before, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 3-1 story: correct a misspelling with an update.
	tx2 := c.Begin()
	if err := tx2.UpdateKey(1, 4, harbor.Row(productSchema, harbor.Int(4), harbor.Str("Ellis"), harbor.Int(20))); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	cur, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if cur[0].Values[productSchema.FieldIndex("name")].Str != "Ellis" {
		t.Fatalf("update lost: %v", cur)
	}
	old, err := c.Query(1, harbor.Query{AsOf: before})
	if err != nil {
		t.Fatal(err)
	}
	if old[0].Values[productSchema.FieldIndex("name")].Str != "Elliss" {
		t.Fatalf("history lost: %v", old)
	}
}

func TestPublicAPIBulkLoadAndDrop(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 2, SegPages: 8})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	batch := func(base int64, n int) []harbor.Tuple {
		out := make([]harbor.Tuple, n)
		for i := range out {
			out[i] = harbor.Row(productSchema,
				harbor.Int(base+int64(i)), harbor.Str("bulk"), harbor.Int(1))
		}
		return out
	}
	ts1, err := c.BulkLoad(1, batch(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BulkLoad(1, batch(1000, 100)); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("rows after bulk loads = %d", len(rows))
	}
	// Bulk loads coexist with transactional inserts and time travel.
	tx := c.Begin()
	if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(5000), harbor.Str("txn"), harbor.Int(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	old, err := c.Query(1, harbor.Query{AsOf: ts1})
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 100 {
		t.Fatalf("historical rows at first bulk load = %d", len(old))
	}
	// Drop the oldest segment: the first batch disappears atomically.
	if err := c.DropOldestSegment(1); err != nil {
		t.Fatal(err)
	}
	rows, err = c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 101 {
		t.Fatalf("rows after drop = %d, want 101", len(rows))
	}
	// The second bulk segment (plus the page the transactional insert
	// appended to it) remains.
	if n, err := c.SegmentCount(0, 1); err != nil || n < 1 {
		t.Fatalf("segment count = %d, %v", n, err)
	}
}

func TestPublicAPIBulkLoadedDataRecovers(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 2, SegPages: 8, CheckpointEvery: time.Hour})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	rows := make([]harbor.Tuple, 50)
	for i := range rows {
		rows[i] = harbor.Row(productSchema, harbor.Int(int64(i)), harbor.Str("b"), harbor.Int(1))
	}
	if _, err := c.BulkLoad(1, rows); err != nil {
		t.Fatal(err)
	}
	c.CrashWorker(0)
	// A post-crash transactional insert, then recovery.
	tx := c.Begin()
	if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(999), harbor.Str("t"), harbor.Int(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverWorker(0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 51 {
		t.Fatalf("rows after recovery = %d, want 51", len(got))
	}
}

func TestPublicAPIVacuumRetention(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 2})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	// Insert 10, delete 5 over distinct commits.
	for i := int64(1); i <= 10; i++ {
		tx := c.Begin()
		if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(i), harbor.Str("x"), harbor.Int(1))); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var delTimes []harbor.Timestamp
	for i := int64(1); i <= 5; i++ {
		tx := c.Begin()
		if err := tx.DeleteKey(1, i); err != nil {
			t.Fatal(err)
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		delTimes = append(delTimes, ts)
	}
	// Retain only the last 2 time units: versions deleted earlier purge.
	n, err := c.Vacuum(2)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("vacuum purged nothing")
	}
	// Current reads unchanged.
	rows, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("current rows = %d", len(rows))
	}
	// Time travel within retention still exact: just before the last
	// delete, exactly one deleted-later key is visible.
	rows, err = c.Query(1, harbor.Query{AsOf: delTimes[4] - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows within retention window = %d, want 6", len(rows))
	}
}

// TestPublicAPIBulkLoadKeepsUnflushedRowsReachable: BulkLoad and
// DropOldestSegment rebuild the key index from the heap file, so rows that
// so far live only in the buffer pool must reach the file first — or the
// rebuilt index (and the page key bounds scans prune by) would not know
// them, and a key lookup or key-range query would miss committed rows.
func TestPublicAPIBulkLoadKeepsUnflushedRowsReachable(t *testing.T) {
	c := startCluster(t, harbor.Options{Workers: 2, SegPages: 8, CheckpointEvery: time.Hour})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	insert := func(id int64) {
		t.Helper()
		tx := c.Begin()
		if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(id), harbor.Str("txn"), harbor.Int(1))); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	find := func(label string, id int64) {
		t.Helper()
		rows, err := c.Query(1, harbor.Query{Where: harbor.Where(productSchema, "id", harbor.EQ, harbor.Int(id))})
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: query id=%d returned %d rows, %v", label, id, len(rows), err)
		}
		tx := c.Begin()
		if err := tx.UpdateKey(1, id, harbor.Row(productSchema, harbor.Int(id), harbor.Str(label), harbor.Int(2))); err != nil {
			t.Fatalf("%s: update id=%d: %v", label, id, err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	insert(10)
	for i := 0; i < c.NumWorkers(); i++ {
		if err := c.Worker(i).CheckpointNow(); err != nil { // page 0 reaches the file holding key 10 only
			t.Fatal(err)
		}
	}
	insert(5000) // same page, now dirty in the pool
	bulk := make([]harbor.Tuple, 50)
	for i := range bulk {
		bulk[i] = harbor.Row(productSchema, harbor.Int(1000+int64(i)), harbor.Str("bulk"), harbor.Int(1))
	}
	if _, err := c.BulkLoad(1, bulk); err != nil {
		t.Fatal(err)
	}
	find("after bulk load", 5000)
	insert(6000)
	if _, err := c.BulkLoad(1, bulk[:1]); err != nil { // a second segment, so one can go
		t.Fatal(err)
	}
	insert(7000)
	if err := c.DropOldestSegment(1); err != nil {
		t.Fatal(err)
	}
	find("after drop", 7000)
}

// dropReusePrologue bulk-loads two 100-row segments (keys 0..99, then
// 1000..1099) into a two-worker cluster, reads them (so the first
// segment's pages are resident in the buffer pools), and drops the oldest,
// so those pages return to the heap's free list.
func dropReusePrologue(t *testing.T) *harbor.Cluster {
	t.Helper()
	c := startCluster(t, harbor.Options{Workers: 2, SegPages: 8, CheckpointEvery: time.Hour})
	if err := c.CreateTable(1, productSchema); err != nil {
		t.Fatal(err)
	}
	for _, base := range []int64{0, 1000} {
		rows := make([]harbor.Tuple, 100)
		for i := range rows {
			rows[i] = harbor.Row(productSchema, harbor.Int(base+int64(i)), harbor.Str("bulk"), harbor.Int(1))
		}
		if _, err := c.BulkLoad(1, rows); err != nil {
			t.Fatal(err)
		}
	}
	if rows, err := c.Query(1, harbor.Query{}); err != nil || len(rows) != 200 {
		t.Fatalf("rows after bulk loads = %d, %v", len(rows), err)
	}
	if err := c.DropOldestSegment(1); err != nil {
		t.Fatal(err)
	}
	return c
}

// commitRows inserts keys [lo, hi), one transaction per row.
func commitRows(t *testing.T, c *harbor.Cluster, lo, hi int64) {
	t.Helper()
	for k := lo; k < hi; k++ {
		tx := c.Begin()
		if err := tx.Insert(1, harbor.Row(productSchema, harbor.Int(k), harbor.Str("txn"), harbor.Int(2))); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDroppedSegmentPagesReuseEmpty: a page DropOldestSegment frees is
// handed out again by later inserts, and must come back empty — not with
// the dropped segment's committed rows, which would reappear in every scan.
func TestDroppedSegmentPagesReuseEmpty(t *testing.T) {
	c := dropReusePrologue(t)
	commitRows(t, c, 5000, 5300)
	rows, err := c.Query(1, harbor.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 400 {
		t.Fatalf("rows after drop and 300 inserts = %d, want 400", len(rows))
	}
}

// TestDroppedSegmentPagesReuseEmptyAfterCrash: the crash variant. Worker 1
// restarts over its files and recovery copies the rows it missed into
// reused pages; served alone, it must hold exactly the live rows, each key
// once.
func TestDroppedSegmentPagesReuseEmptyAfterCrash(t *testing.T) {
	c := dropReusePrologue(t)
	c.CrashWorker(1)
	commitRows(t, c, 5000, 5050)
	if _, err := c.RecoverWorker(1); err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(exec.NewSeqScan(c.Worker(1).Store, exec.ScanSpec{Table: 1, Vis: exec.Current}))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, len(rows))
	dups, dead := 0, 0
	for _, r := range rows {
		k := r.Key(productSchema)
		if seen[k] {
			dups++
		}
		seen[k] = true
		if !(k >= 1000 && k < 1100 || k >= 5000 && k < 5050) {
			dead++
		}
	}
	if len(rows) != 150 || dups != 0 || dead != 0 {
		t.Fatalf("worker 1 serves %d rows (%d duplicated keys, %d rows of dropped keys), want the 150 live rows", len(rows), dups, dead)
	}
}
