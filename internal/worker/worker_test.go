package worker_test

import (
	"testing"
	"time"

	"harbor/internal/comm"
	"harbor/internal/coord"
	"harbor/internal/exec"
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

func newCluster(t *testing.T, protocol txn.Protocol, mode worker.RecoveryMode, workers int) *testutil.Cluster {
	t.Helper()
	cl, err := testutil.NewCluster(testutil.ClusterConfig{
		Workers:     workers,
		Protocol:    protocol,
		Mode:        mode,
		GroupCommit: true,
		LockTimeout: 500 * time.Millisecond,
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

func countRows(t *testing.T, w *worker.Site, vis exec.Visibility) int {
	t.Helper()
	rows, err := exec.Drain(exec.NewSeqScan(w.Store, exec.ScanSpec{Table: 1, Vis: vis}))
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

// driveTxn runs a raw commit protocol against workers over direct
// connections, playing coordinator manually so the test can kill the
// "coordinator" at precise points.
type rawTxn struct {
	id    int64
	conns []*comm.Conn
	sites []int32
}

func beginRaw(t *testing.T, cl *testutil.Cluster, id int64, workers ...int) *rawTxn {
	t.Helper()
	rt := &rawTxn{id: id}
	for _, i := range workers {
		rt.sites = append(rt.sites, int32(testutil.WorkerSiteID(i)))
	}
	for _, i := range workers {
		addr, _ := cl.Catalog.SiteAddr(testutil.WorkerSiteID(i))
		c, err := comm.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(&wire.Msg{Type: wire.MsgBegin, Txn: id}); err != nil {
			t.Fatal(err)
		}
		rt.conns = append(rt.conns, c)
	}
	return rt
}

func (rt *rawTxn) insert(t *testing.T, key int64) {
	t.Helper()
	for _, c := range rt.conns {
		resp, err := c.Call(&wire.Msg{Type: wire.MsgInsert, Txn: rt.id, Table: 1,
			Tuple: wire.TupleValues(mk(key, 0))})
		if err != nil || resp.Type != wire.MsgOK {
			t.Fatalf("raw insert: %v %v", resp, err)
		}
	}
}

func (rt *rawTxn) prepare(t *testing.T) {
	t.Helper()
	for _, c := range rt.conns {
		resp, err := c.Call(&wire.Msg{Type: wire.MsgPrepare, Txn: rt.id, Sites: rt.sites})
		if err != nil || resp.Type != wire.MsgVote || !resp.Yes() {
			t.Fatalf("raw prepare: %v %v", resp, err)
		}
	}
}

func (rt *rawTxn) prepareToCommit(t *testing.T, ts int64) {
	t.Helper()
	for _, c := range rt.conns {
		resp, err := c.Call(&wire.Msg{Type: wire.MsgPrepareToCommit, Txn: rt.id, TS: ts})
		if err != nil || resp.Type != wire.MsgOK {
			t.Fatalf("raw PTC: %v %v", resp, err)
		}
	}
}

// dropConns simulates coordinator failure: abruptly close the transaction's
// connections.
func (rt *rawTxn) dropConns() {
	for _, c := range rt.conns {
		c.Close()
	}
}

// awaitCount polls a worker until the current-visibility row count matches.
func awaitCount(t *testing.T, w *worker.Site, want int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if got := countRows(t, w, exec.Current); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never reached %d rows (has %d)", want, countRows(t, w, exec.Current))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConsensusCommitsFromPreparedToCommit exercises Table 4.1 row 5: the
// coordinator dies after PREPARE-TO-COMMIT; the backup coordinator (lowest
// participant) replays the last two phases and commits with the original
// commit time.
func TestConsensusCommitsFromPreparedToCommit(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 3)
	rt := beginRaw(t, cl, 42001, 0, 1, 2)
	rt.insert(t, 1)
	rt.prepare(t)
	rt.prepareToCommit(t, 777)
	rt.dropConns() // coordinator "fails" after the commit point

	for i, w := range cl.Workers {
		awaitCount(t, w, 1, 5*time.Second)
		rows, err := exec.Drain(exec.NewSeqScan(w.Store, exec.ScanSpec{Table: 1, Vis: exec.Current}))
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].InsTS() != 777 {
			t.Fatalf("worker %d committed with ts %d, want the original 777", i, rows[0].InsTS())
		}
	}
}

// TestConsensusAbortsFromPrepared exercises Table 4.1 row 3: coordinator
// dies after PREPARE but before PREPARE-TO-COMMIT; no site can have
// committed, so the backup aborts everywhere.
func TestConsensusAbortsFromPrepared(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 3)
	rt := beginRaw(t, cl, 42002, 0, 1, 2)
	rt.insert(t, 1)
	rt.prepare(t)
	rt.dropConns()

	deadline := time.Now().Add(5 * time.Second)
	for i, w := range cl.Workers {
		for {
			if countRows(t, w, exec.SeeDeleted) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d did not roll back via consensus", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestConsensusAbortsPendingTxn: coordinator dies before PREPARE; workers
// abort unilaterally (Table 4.1 row 1 / §4.3.2).
func TestConsensusAbortsPendingTxn(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	rt := beginRaw(t, cl, 42003, 0, 1)
	rt.insert(t, 1)
	rt.dropConns()
	deadline := time.Now().Add(3 * time.Second)
	for i, w := range cl.Workers {
		for {
			if countRows(t, w, exec.SeeDeleted) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d did not abort the pending txn", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestConsensusBackupDeadPromotesNext: the lowest-ranked participant is
// crashed when the coordinator dies in the PTC state; the next rank must
// take over and still commit.
func TestConsensusBackupDeadPromotesNext(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 3)
	rt := beginRaw(t, cl, 42004, 0, 1, 2)
	rt.insert(t, 1)
	rt.prepare(t)
	rt.prepareToCommit(t, 888)
	// Kill the designated backup (worker 0 = lowest site id) and the
	// coordinator connections at once.
	cl.Workers[0].Crash()
	rt.dropConns()
	for _, i := range []int{1, 2} {
		awaitCount(t, cl.Workers[i], 1, 8*time.Second)
	}
}

// Test2PCBlockedWorkerWaitsForCoordinatorOutcome: traditional 2PC prepared
// worker blocks on coordinator failure, then polls the outcome service.
func Test2PCWorkerResolvesViaOutcomeService(t *testing.T) {
	cl := newCluster(t, txn.OptTwoPC, worker.HARBOR, 2)
	// Run a real transaction but simulate losing the worker connections
	// right after prepare by driving the protocol manually.
	rt := beginRaw(t, cl, 42005, 0, 1)
	rt.insert(t, 7)
	rt.prepare(t)
	// Record a committed outcome at the coordinator for this txn id, as if
	// the coordinator had reached its commit point before dying.
	cl.Coord.RecordOutcomeForTest(42005, true, 999)
	rt.dropConns()
	for i := range cl.Workers {
		awaitCount(t, cl.Workers[i], 1, 5*time.Second)
		rows, _ := exec.Drain(exec.NewSeqScan(cl.Workers[i].Store, exec.ScanSpec{Table: 1, Vis: exec.Current}))
		if rows[0].InsTS() != 999 {
			t.Fatalf("worker %d ts = %d", i, rows[0].InsTS())
		}
	}
}

func TestWorkerVotesNoForUnknownTxnAfterRestart(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	rt := beginRaw(t, cl, 42006, 0)
	rt.insert(t, 1)
	// Crash and restart worker 0; then send PREPARE for the now-unknown txn.
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := cl.Catalog.SiteAddr(testutil.WorkerSiteID(0))
	c, err := comm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&wire.Msg{Type: wire.MsgPrepare, Txn: 42006})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.MsgVote || resp.Yes() {
		t.Fatalf("restarted worker should vote NO for unknown txn: %+v", resp)
	}
	_ = w
}

func TestHARBORCheckpointAdvances(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	tx := cl.Coord.Begin()
	if err := tx.Insert(1, mk(1, 0)); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	w := cl.Workers[0]
	if err := w.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	got, err := w.LastCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got != ts {
		t.Fatalf("checkpoint T = %d, want %d", got, ts)
	}
	// After the checkpoint the data is durable: crash + reopen sees it on
	// disk without any recovery.
	w.Crash()
	w2, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, w2, exec.Current); n != 1 {
		t.Fatalf("checkpointed tuple lost: %d rows", n)
	}
}

func TestARIESWorkerRecoversThroughCoordinatorOutcomes(t *testing.T) {
	cl := newCluster(t, txn.TwoPC, worker.ARIES, 2)
	// Commit two transactions, then crash worker 0 before any checkpoint.
	for i := int64(1); i <= 2; i++ {
		tx := cl.Coord.Begin()
		if err := tx.Insert(1, mk(i, 0)); err != nil {
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
	stats, err := w.RecoverARIES()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RedoApplied == 0 {
		t.Fatal("ARIES redo did nothing")
	}
	if n := countRows(t, w, exec.Current); n != 2 {
		t.Fatalf("rows after ARIES restart = %d", n)
	}
}

func TestCrashIsFailStop(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	w := cl.Workers[0]
	addr := w.Addr()
	w.Crash()
	if !w.Crashed() {
		t.Fatal("Crashed() false after crash")
	}
	if comm.Ping(addr, 200*time.Millisecond) {
		t.Fatal("crashed worker still answers")
	}
	// Crash is idempotent.
	w.Crash()
	// Cluster still serves reads from the survivor.
	if _, err := cl.Coord.Scan(1, coord.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestSimWorkBurnsCPU(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	tx := cl.Coord.Begin()
	if err := tx.Insert(1, mk(1, 0)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := tx.SimWork(1, 3_000_000); err != nil {
		t.Fatal(err)
	}
	if time.Since(t0) <= 0 {
		t.Fatal("impossible")
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// modeFor pairs each protocol with its natural recovery mode: plans with
// worker force points keep a WAL and recover with ARIES; logless plans
// recover from replicas (HARBOR).
func modeFor(p txn.Protocol) worker.RecoveryMode {
	if p.Plan().WorkerForces() {
		return worker.ARIES
	}
	return worker.HARBOR
}

// TestCostParity is the enforced Table 4.2 invariant: for every registered
// protocol, one committed single-insert transaction with two workers must
// measure exactly the messages/worker and coordinator/worker forced writes
// that the protocol's phase plan derives in ExpectedCost(). Because the
// executor, the worker handlers, and ExpectedCost() all consume the same
// plan rounds, a drift in any of them fails here.
func TestCostParity(t *testing.T) {
	for _, protocol := range txn.Protocols() {
		t.Run(protocol.String(), func(t *testing.T) {
			cl := newCluster(t, protocol, modeFor(protocol), 2)
			cl.Coord.Obs().Reset()
			for _, w := range cl.Workers {
				w.Obs().Reset()
			}
			tx := cl.Coord.Begin()
			if err := tx.Insert(1, mk(1, 0)); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			want := protocol.ExpectedCost()
			// The counts come from the obs metrics registry — the same
			// snapshot /debug/harbor and harbor-bench serve — so parity here
			// also pins the observability layer's accounting. A logless
			// coordinator/worker has no WAL instrumented and no
			// wal.force_calls key; the zero value is the right reading.
			coordSnap := cl.Coord.Obs().Snapshot()
			if got := coordSnap.Counters["wal.force_calls"]; got != int64(want.CoordForcedWrites) {
				t.Errorf("coordinator forced-writes = %d, want %d", got, want.CoordForcedWrites)
			}
			for i, w := range cl.Workers {
				if got := w.Obs().Snapshot().Counters["wal.force_calls"]; got != int64(want.WorkerForcedWrites) {
					t.Errorf("worker %d forced-writes = %d, want %d", i, got, want.WorkerForcedWrites)
				}
			}
			msgs := coordSnap.Counters["coord.msgs_sent"]
			if commits := coordSnap.Counters["coord.commits"]; commits != 1 {
				t.Fatalf("commits = %d", commits)
			}
			// The thesis's "messages per worker" (Table 4.2) counts both
			// directions of each round: 4 for 2PC (prepare, vote, commit,
			// ack) and 6 for 3PC. Our counter sees coordinator→worker
			// requests only — exactly half — plus the one BEGIN and one
			// INSERT per worker for this workload.
			perWorkerProtocol := (int(msgs) - 2 /*BEGINs*/ - 2 /*INSERTs*/) / 2
			if perWorkerProtocol != want.MessagesPerWorker/2 {
				t.Errorf("per-worker protocol requests = %d, want %d (total msgs %d)",
					perWorkerProtocol, want.MessagesPerWorker/2, msgs)
			}
		})
	}
}

func TestBackgroundCheckpointerRuns(t *testing.T) {
	cl, err := testutil.NewCluster(testutil.ClusterConfig{
		Workers:         1,
		Protocol:        txn.OptThreePC,
		Mode:            worker.HARBOR,
		CheckpointEvery: 30 * time.Millisecond,
		BaseDir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateReplicatedTable(1, testDesc(), 4); err != nil {
		t.Fatal(err)
	}
	tx := cl.Coord.Begin()
	if err := tx.Insert(1, mk(1, 0)); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, err := cl.Workers[0].LastCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got >= ts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never reached %d (at %d)", ts, got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// PauseCheckpoints stops advancement.
	cl.Workers[0].PauseCheckpoints()
	tx2 := cl.Coord.Begin()
	if err := tx2.Insert(1, mk(2, 0)); err != nil {
		t.Fatal(err)
	}
	ts2, err := tx2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	got, _ := cl.Workers[0].LastCheckpoint()
	if got >= ts2 {
		t.Fatal("checkpointer advanced while paused")
	}
	cl.Workers[0].ResumeCheckpoints()
}

// TestARIESInDoubtResolvedThroughRealCoordinator stages the full
// distributed in-doubt flow: a worker prepares under traditional 2PC
// (forced PREPARE record), crashes before receiving COMMIT, and on restart
// ARIES finds the in-doubt transaction and resolves it by querying the
// coordinator's outcome service over TCP — completing the commit with the
// coordinator's timestamp, including the §6.1.7 stamping.
func TestARIESInDoubtResolvedThroughRealCoordinator(t *testing.T) {
	cl := newCluster(t, txn.TwoPC, worker.ARIES, 2)
	rt := beginRaw(t, cl, 52001, 0)
	rt.insert(t, 77)
	rt.prepare(t) // forced to the worker's log
	// The coordinator reached its commit point (forced COMMIT record) but
	// the COMMIT message never arrived: record the outcome, crash the
	// worker.
	cl.Coord.RecordOutcomeForTest(52001, true, 4242)
	cl.Workers[0].Crash()
	rt.dropConns()

	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.RecoverARIES()
	if err != nil {
		t.Fatal(err)
	}
	if stats.InDoubt != 1 || stats.Committed != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	rows, err := exec.Drain(exec.NewSeqScan(w.Store, exec.ScanSpec{Table: 1, Vis: exec.Current}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].InsTS() != 4242 {
		t.Fatalf("in-doubt commit not completed: %v", rows)
	}
}

// TestARIESInDoubtPresumedAbortThroughRealCoordinator: same setup but the
// coordinator has no information → presumed abort.
func TestARIESInDoubtPresumedAbortThroughRealCoordinator(t *testing.T) {
	cl := newCluster(t, txn.TwoPC, worker.ARIES, 2)
	rt := beginRaw(t, cl, 52002, 0)
	rt.insert(t, 88)
	rt.prepare(t)
	cl.Workers[0].Crash()
	rt.dropConns()

	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.RecoverARIES()
	if err != nil {
		t.Fatal(err)
	}
	if stats.InDoubt != 1 || stats.Losers != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if n := countRows(t, w, exec.SeeDeleted); n != 0 {
		t.Fatalf("presumed-abort txn left %d tuples", n)
	}
}
