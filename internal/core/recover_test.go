package core_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"harbor/internal/comm"
	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

func testDesc() *tuple.Desc {
	return tuple.MustDesc("id",
		tuple.FieldDef{Name: "id", Type: tuple.Int64},
		tuple.FieldDef{Name: "v", Type: tuple.Int32},
	)
}

func mk(id, v int64) tuple.Tuple {
	return tuple.MustMake(testDesc(), tuple.VInt(id), tuple.VInt(v))
}

func newCluster(t *testing.T, workers int) *testutil.Cluster {
	t.Helper()
	cl, err := testutil.NewCluster(testutil.ClusterConfig{
		Workers:     workers,
		Protocol:    txn.OptThreePC,
		Mode:        worker.HARBOR,
		LockTimeout: time.Second,
		BaseDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateReplicatedTable(1, testDesc(), 4); err != nil {
		t.Fatal(err)
	}
	return cl
}

// snapshot returns table contents keyed by (id, ins, del) for logical
// replica comparison.
func snapshot(t *testing.T, w *worker.Site, table int32) map[string]bool {
	t.Helper()
	rows, err := exec.Drain(exec.NewSeqScan(w.Store, exec.ScanSpec{Table: table, Vis: exec.SeeDeleted}))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, r := range rows {
		key := fmt.Sprintf("%d@%d-%d", r.Key(testDesc()), r.InsTS(), r.DelTS())
		if out[key] {
			t.Fatalf("duplicate version on worker: %s", key)
		}
		out[key] = true
	}
	return out
}

// assertReplicasEqual checks the §3.1 logical-equivalence invariant.
func assertReplicasEqual(t *testing.T, cl *testutil.Cluster, table int32, workers ...int) {
	t.Helper()
	if len(workers) == 0 {
		for i := range cl.Workers {
			workers = append(workers, i)
		}
	}
	base := snapshot(t, cl.Workers[workers[0]], table)
	for _, i := range workers[1:] {
		other := snapshot(t, cl.Workers[i], table)
		if len(base) != len(other) {
			t.Fatalf("replica divergence: worker %d has %d versions, worker %d has %d",
				workers[0], len(base), i, len(other))
		}
		for k := range base {
			if !other[k] {
				t.Fatalf("replica divergence: version %s missing on worker %d", k, i)
			}
		}
	}
}

func commitInsert(t *testing.T, cl *testutil.Cluster, table int32, id, v int64) tuple.Timestamp {
	t.Helper()
	tx := cl.Coord.Begin()
	if err := tx.Insert(table, mk(id, v)); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func recover(t *testing.T, cl *testutil.Cluster, i int, opt core.Options) *core.SiteStats {
	t.Helper()
	w, err := cl.RestartWorker(i)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := core.New(w, cl.Catalog).RecoverSite(opt)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestRecoverInsertsSinceCheckpoint(t *testing.T) {
	cl := newCluster(t, 2)
	// Committed + checkpointed baseline.
	for i := int64(1); i <= 10; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	// Post-checkpoint inserts: never flushed at worker 0.
	for i := int64(11); i <= 30; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	cl.Workers[0].Crash()
	// The survivor keeps serving both reads and writes.
	commitInsert(t, cl, 1, 31, 31)
	stats := recover(t, cl, 0, core.Options{})
	if len(stats.Objects) != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	obj := stats.Objects[0]
	if obj.Phase2Inserts+obj.Phase3Inserts < 21 {
		t.Fatalf("copied %d+%d inserts, want ≥ 21", obj.Phase2Inserts, obj.Phase3Inserts)
	}
	assertReplicasEqual(t, cl, 1)
	// And the cluster keeps working with the revived replica.
	commitInsert(t, cl, 1, 32, 32)
	assertReplicasEqual(t, cl, 1)
}

func TestRecoverDeletesAndUpdates(t *testing.T) {
	cl := newCluster(t, 2)
	for i := int64(1); i <= 20; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	// Post-checkpoint: delete 5 tuples, update 5 others.
	for i := int64(1); i <= 5; i++ {
		tx := cl.Coord.Begin()
		if err := tx.DeleteKey(1, i); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(6); i <= 10; i++ {
		tx := cl.Coord.Begin()
		if err := tx.UpdateKey(1, i, mk(i, i*100)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Workers[0].Crash()
	stats := recover(t, cl, 0, core.Options{})
	obj := stats.Objects[0]
	if obj.Phase2Deletes+obj.Phase3Deletes < 10 {
		t.Fatalf("copied %d+%d deletion stamps, want ≥ 10", obj.Phase2Deletes, obj.Phase3Deletes)
	}
	assertReplicasEqual(t, cl, 1)
	// Current view agrees too.
	rows, err := cl.Coord.Scan(1, coord.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("current rows = %d, want 15", len(rows))
	}
}

func TestRecoverDiscardsUncommittedAndPostCheckpointDiskState(t *testing.T) {
	cl := newCluster(t, 2)
	for i := int64(1); i <= 5; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	// More committed work, then FLUSH the dirty pages at worker 0 WITHOUT
	// writing a checkpoint: the disk holds post-checkpoint data that
	// Phase 1 must remove before Phase 2 re-copies it.
	for i := int64(6); i <= 9; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	if err := cl.Workers[0].Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// An uncommitted transaction whose dirty page also reaches disk (STEAL).
	tx := cl.Coord.Begin()
	if err := tx.Insert(1, mk(99, 0)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Workers[0].Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	cl.Workers[0].Crash()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	stats := recover(t, cl, 0, core.Options{})
	obj := stats.Objects[0]
	if obj.Phase1Deleted < 5 {
		t.Fatalf("Phase 1 deleted %d tuples, want ≥ 5 (4 post-ckpt + 1 uncommitted)", obj.Phase1Deleted)
	}
	assertReplicasEqual(t, cl, 1)
	rows, err := cl.Coord.Scan(1, coord.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
}

func TestRecoverUndeletesPostCheckpointDeletions(t *testing.T) {
	cl := newCluster(t, 2)
	for i := int64(1); i <= 5; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	// Delete key 1 and flush the stamped page; then crash. Phase 1 must
	// revert the stamp, Phase 2 re-copies it (same value here).
	tx := cl.Coord.Begin()
	if err := tx.DeleteKey(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Workers[0].Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	cl.Workers[0].Crash()
	stats := recover(t, cl, 0, core.Options{})
	obj := stats.Objects[0]
	if obj.Phase1Undeleted != 1 {
		t.Fatalf("Phase 1 undeleted %d, want 1", obj.Phase1Undeleted)
	}
	assertReplicasEqual(t, cl, 1)
}

func TestRecoverFromBlankSlate(t *testing.T) {
	// §5.3: "if S's disk has failed and must be recovered from a blank
	// slate". Restart the worker on a fresh directory.
	cl := newCluster(t, 2)
	for i := int64(1); i <= 25; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	tx := cl.Coord.Begin()
	if err := tx.DeleteKey(1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	old := cl.Workers[0]
	old.Crash()
	// Re-open over an empty directory (disk replaced).
	w, err := worker.Open(worker.Config{
		Site:        testutil.WorkerSiteID(0),
		Dir:         t.TempDir(),
		Protocol:    cl.Cfg.Protocol,
		Mode:        cl.Cfg.Mode,
		LockTimeout: time.Second,
		Catalog:     cl.Catalog,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Workers[0] = w
	cl.Catalog.AddSite(testutil.WorkerSiteID(0), w.Addr())
	if _, err := core.New(w, cl.Catalog).RecoverSite(core.Options{}); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, cl, 1)
}

func TestParallelMultiObjectRecovery(t *testing.T) {
	cl := newCluster(t, 3)
	if err := cl.CreateReplicatedTable(2, testDesc(), 4); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 15; i++ {
		commitInsert(t, cl, 1, i, i)
		commitInsert(t, cl, 2, i, -i)
	}
	cl.Workers[0].Crash()
	for i := int64(16); i <= 20; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	stats := recover(t, cl, 0, core.Options{Parallel: true})
	if len(stats.Objects) != 2 {
		t.Fatalf("recovered %d objects", len(stats.Objects))
	}
	assertReplicasEqual(t, cl, 1)
	assertReplicasEqual(t, cl, 2)
}

func TestRecoveryConcurrentWithUpdates(t *testing.T) {
	// Phase 2 must run without quiescing the system: a writer keeps
	// committing while recovery copies data.
	cl := newCluster(t, 2)
	for i := int64(1); i <= 50; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	cl.Workers[0].Crash()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerErr error
	var written int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1000); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Retry loop: inserts hitting Phase 3's short lock window abort
			// on the deadlock timeout and are retried, exactly how a client
			// handles lock-timeout aborts.
			committed := false
			for attempt := 0; attempt < 5 && !committed; attempt++ {
				tx := cl.Coord.Begin()
				if err := tx.Insert(1, mk(i, 0)); err != nil {
					_ = tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err != nil {
					continue
				}
				committed = true
			}
			if !committed {
				writerErr = fmt.Errorf("insert %d failed after retries", i)
				return
			}
			written++
		}
	}()
	time.Sleep(30 * time.Millisecond)
	recover(t, cl, 0, core.Options{})
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer failed during recovery: %v", writerErr)
	}
	if written == 0 {
		t.Fatal("writer made no progress")
	}
	// Let any post-online commits settle, then compare.
	assertReplicasEqual(t, cl, 1)
}

func TestJoinPendingTransaction(t *testing.T) {
	// Deterministic walk through Figure 5-4. Worker 0 plays the recovering
	// site: the coordinator's failure detector has it down, a pending
	// transaction updates the table at the live buddy only, a second
	// pending transaction's update arrives while the "recovering site"
	// holds the buddy's table read lock (so it blocks, queued at the
	// coordinator), and the OBJECT-ONLINE announcement must replay both
	// queued updates to worker 0 before ALL-DONE.
	cl := newCluster(t, 2)
	for i := int64(1); i <= 5; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	site0 := testutil.WorkerSiteID(0)
	cl.Coord.MarkDown(site0) // failure detector: worker 0 is "crashed"

	// Phase 3 stand-in: take the buddy's table read lock FIRST. (§5.4.1:
	// the lock can only be granted while no transaction has uncommitted
	// rec updates applied anywhere, so both pending updates below arrive
	// while the lock is held and block at the buddy.)
	buddyAddr, _ := cl.Catalog.SiteAddr(testutil.WorkerSiteID(1))
	lockConn, err := comm.Dial(buddyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer lockConn.Close()
	if resp, err := lockConn.Call(&wire.Msg{Type: wire.MsgLockTable, Txn: 999991, Table: 1}); err != nil || resp.Type != wire.MsgOK {
		t.Fatalf("table lock: %v %v", resp, err)
	}

	// Two pending transactions: their inserts block behind the table lock,
	// queued at the coordinator.
	pend1 := cl.Coord.Begin()
	pend1Done := make(chan error, 1)
	go func() { pend1Done <- pend1.Insert(1, mk(100, 100)) }()
	pend2 := cl.Coord.Begin()
	pend2Done := make(chan error, 1)
	go func() { pend2Done <- pend2.Insert(1, mk(101, 101)) }()
	time.Sleep(50 * time.Millisecond)

	// "rec on S is coming online" — replay must happen even though pend2's
	// update is still blocked at the buddy.
	coordConn, err := comm.Dial(cl.Coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer coordConn.Close()
	resp, err := coordConn.Call(&wire.Msg{Type: wire.MsgObjectOnline, Site: int32(site0), Table: 1})
	if err != nil || resp.Type != wire.MsgAllDone {
		t.Fatalf("object-online: %v %v", resp, err)
	}

	// Release the table lock; pend2's blocked insert completes.
	if _, err := lockConn.Call(&wire.Msg{Type: wire.MsgUnlockTable, Txn: 999991, Table: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := lockConn.Call(&wire.Msg{Type: wire.MsgEndRead, Txn: 999991}); err != nil {
		t.Fatal(err)
	}
	if err := <-pend1Done; err != nil {
		t.Fatalf("blocked insert 1 failed: %v", err)
	}
	if err := <-pend2Done; err != nil {
		t.Fatalf("blocked insert 2 failed: %v", err)
	}

	// Both pending transactions commit with worker 0 as a participant.
	if _, err := pend1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := pend2.Commit(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, cl, 1)
	rows, err := cl.Coord.Scan(1, coord.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, r := range rows {
		ids = append(ids, r.Key(testDesc()))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 7 || ids[5] != 100 || ids[6] != 101 {
		t.Fatalf("joined txn effects missing: %v", ids)
	}
}

func TestBuddyFailureDuringRecoveryReplans(t *testing.T) {
	// 3 workers, K=2: crash worker 0, start recovery, crash buddy worker 1
	// mid-stream; recovery must replan onto worker 2 (§5.5.2).
	cl := newCluster(t, 3)
	for i := int64(1); i <= 200; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	cl.Workers[0].Crash()
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the first buddy shortly after recovery starts.
	go func() {
		time.Sleep(5 * time.Millisecond)
		cl.Workers[1].Crash()
	}()
	if _, err := core.New(w, cl.Catalog).RecoverSite(core.Options{}); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, cl, 1, 0, 2)
}

func TestRecoveringSiteCrashMidRecoveryRestartsFromObjectCheckpoint(t *testing.T) {
	cl := newCluster(t, 2)
	for i := int64(1); i <= 100; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	cl.Workers[0].Crash()
	// First recovery attempt: crash the recovering site right after
	// Phase 2 recorded a per-object checkpoint. Simulate by running
	// recovery and crashing concurrently.
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := core.New(w, cl.Catalog).RecoverSite(core.Options{})
		done <- err
	}()
	time.Sleep(3 * time.Millisecond)
	w.Crash()
	<-done // may or may not have failed; either way, retry from scratch
	stats := recover(t, cl, 0, core.Options{})
	_ = stats
	assertReplicasEqual(t, cl, 1)
}

func TestRecoveryPhaseDecomposition(t *testing.T) {
	cl := newCluster(t, 2)
	for i := int64(1); i <= 40; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(41); i <= 60; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	cl.Workers[0].Crash()
	stats := recover(t, cl, 0, core.Options{})
	obj := stats.Objects[0]
	if obj.Phase1 <= 0 || obj.Total <= 0 {
		t.Fatalf("phase timers not recorded: %+v", obj)
	}
	if obj.Total < obj.Phase1+obj.Phase2Update+obj.Phase2Insert {
		t.Fatalf("total %v < sum of phases", obj.Total)
	}
	if obj.Rounds < 1 {
		t.Fatalf("no Phase 2 rounds recorded")
	}
}

// The benchmark ledger derives the transfer engine's copy rates from three
// registry counters; each must total exactly the tuples the public
// ObjectStats report, for crash recovery and for migration alike.
func TestTransferCountersMatchObjectStats(t *testing.T) {
	cl := newCluster(t, 2)
	for i := int64(1); i <= 40; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(41); i <= 60; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	for i := int64(1); i <= 5; i++ {
		tx := cl.Coord.Begin()
		if err := tx.DeleteKey(1, i); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Workers[0].Crash()
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	reg := w.Obs()
	p2, p3 := reg.Counter("recovery.phase2.tuples").Load(), reg.Counter("recovery.phase3.tuples").Load()
	stats, err := core.New(w, cl.Catalog).RecoverSite(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want2, want3 int64
	for _, o := range stats.Objects {
		want2 += int64(o.Phase2Deletes + o.Phase2Inserts)
		want3 += int64(o.Phase3Deletes + o.Phase3Inserts)
	}
	if want2 == 0 {
		t.Fatalf("recovery copied nothing in Phase 2: %+v", stats.Objects)
	}
	if got := reg.Counter("recovery.phase2.tuples").Load() - p2; got != want2 {
		t.Fatalf("recovery.phase2.tuples = %d, ObjectStats sum %d", got, want2)
	}
	if got := reg.Counter("recovery.phase3.tuples").Load() - p3; got != want3 {
		t.Fatalf("recovery.phase3.tuples = %d, ObjectStats sum %d", got, want3)
	}

	target, err := cl.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Migrate(target, cl.Catalog, core.MigrateSpec{Table: 1, Range: expr.KeyRange{Lo: 0, Hi: 30}}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(st.Phase2Deletes + st.Phase2Inserts)
	if want == 0 {
		t.Fatalf("migration copied nothing in Phase 2: %+v", st)
	}
	if got := target.Obs().Counter("migrate.copied.tuples").Load(); got != want {
		t.Fatalf("migrate.copied.tuples = %d, Phase2Deletes+Phase2Inserts %d", got, want)
	}
}

func TestHistoricalQueriesSurviveRecovery(t *testing.T) {
	// Time travel still works on the recovered replica.
	cl := newCluster(t, 2)
	ts1 := commitInsert(t, cl, 1, 1, 1)
	commitInsert(t, cl, 1, 2, 2)
	tx := cl.Coord.Begin()
	if err := tx.DeleteKey(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.Workers[0].Crash()
	recover(t, cl, 0, core.Options{})
	// Force reads onto the recovered replica.
	rows, err := cl.Coord.Scan(1, coord.QueryOptions{
		Historical: true, AsOf: ts1, PreferSite: testutil.WorkerSiteID(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key(testDesc()) != 1 {
		t.Fatalf("time travel on recovered replica: %v", rows)
	}
}
