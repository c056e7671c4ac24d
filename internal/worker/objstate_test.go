package worker_test

import (
	"testing"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// recvTerminal drains a scan stream to its terminal frame without fataling
// on MsgErr — refusals are an expected outcome in the gating tests below.
func recvTerminal(t *testing.T, c *comm.Conn) *wire.Msg {
	t.Helper()
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch m.Type {
		case wire.MsgScanEnd, wire.MsgErr:
			return m
		case wire.MsgTupleBatch:
			// drain
		default:
			t.Fatalf("unexpected %v in stream", m.Type)
		}
	}
}

// TestObjectStateGatesWireReads walks the per-object recovery state machine
// at the wire level: a NeedsRecovery object refuses every read; a
// HistoricalCopy object serves historical reads at or below its copied
// horizon and refuses everything past it (plus all current-visibility
// reads); a Ready object serves everything, recovery scans included.
func TestObjectStateGatesWireReads(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	var preTS tuple.Timestamp
	for i := int64(1); i <= 5; i++ {
		tx := cl.Coord.Begin()
		if err := tx.Insert(1, mk(i, i*10)); err != nil {
			t.Fatal(err)
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		preTS = ts
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Workers[0].Crash()
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty restart: the clean-shutdown marker is missing, so Open demotes
	// every object and the ping bitmap says so.
	if st, _ := w.ObjectState(1); st != worker.ObjNeedsRecovery {
		t.Fatalf("dirty open: state = %v, want NeedsRecovery", st)
	}
	live, ready, objs := comm.PingObjects(w.Addr(), time.Second)
	if !live || ready {
		t.Fatalf("ping: live=%v ready=%v, want live and not ready", live, ready)
	}
	if len(objs) != 1 || objs[0].Table != 1 || worker.ObjState(objs[0].State) != worker.ObjNeedsRecovery {
		t.Fatalf("ping bitmap: %+v", objs)
	}

	c := dialWorker(t, cl, 0)
	scan := func(vis exec.Visibility, asOf tuple.Timestamp) *wire.Msg {
		if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: 900, Table: 1,
			Vis: uint8(vis), TS: int64(asOf)}); err != nil {
			t.Fatal(err)
		}
		return recvTerminal(t, c)
	}
	// NeedsRecovery: every visibility refused.
	if m := scan(exec.Current, 0); m.Type != wire.MsgErr {
		t.Fatalf("current scan of NeedsRecovery object answered %v, want refusal", m.Type)
	}
	if m := scan(exec.Historical, preTS); m.Type != wire.MsgErr {
		t.Fatalf("historical scan of NeedsRecovery object answered %v, want refusal", m.Type)
	}

	// Mid historical copy with horizon preTS: historical reads at or below
	// the horizon serve, anything past it — and any current read — refuses.
	w.SetObjectState(1, worker.ObjHistoricalCopy, preTS)
	if m := scan(exec.Historical, preTS); m.Type != wire.MsgScanEnd {
		t.Fatalf("historical scan at the copied horizon answered %v (%s), want a served stream", m.Type, m.Text)
	} else if m.Count != 5 {
		t.Fatalf("historical scan at horizon returned %d rows, want 5", m.Count)
	}
	if m := scan(exec.Historical, preTS+1); m.Type != wire.MsgErr {
		t.Fatalf("historical scan past the copied horizon answered %v, want refusal", m.Type)
	}
	if m := scan(exec.Current, 0); m.Type != wire.MsgErr {
		t.Fatalf("current scan of HistoricalCopy object answered %v, want refusal", m.Type)
	}
	if m := scan(exec.Historical, 0); m.Type != wire.MsgErr {
		t.Fatalf("historical scan with unresolved asOf answered %v, want refusal", m.Type)
	}
	// A refused read fault-ins the object: the recovery driver's hook fires,
	// carrying the key range the read declared (full range when undeclared).
	type faultIn struct {
		table int32
		rng   expr.KeyRange
	}
	faulted := make(chan faultIn, 8)
	w.SetFaultInHook(func(table int32, rng expr.KeyRange) { faulted <- faultIn{table, rng} })
	_ = scan(exec.Current, 0)
	select {
	case f := <-faulted:
		if f.table != 1 {
			t.Fatalf("fault-in hook fired for table %d, want 1", f.table)
		}
		if f.rng != expr.FullKeyRange() {
			t.Fatalf("undeclared scan range faulted in %+v, want the full range", f.rng)
		}
	default:
		t.Fatal("refused read did not fire the fault-in hook")
	}

	// Ready: everything serves again, recovery scans included, and the
	// bitmap flips.
	w.SetObjectState(1, worker.ObjReady, preTS)
	if m := scan(exec.Current, 0); m.Type != wire.MsgScanEnd {
		t.Fatalf("current scan of Ready object answered %v (%s), want a served stream", m.Type, m.Text)
	}
	if _, ready, _ := comm.PingObjects(w.Addr(), time.Second); !ready {
		t.Fatal("ping: site with all objects Ready must advertise readiness")
	}
}

// TestSegmentStateGatesWireReads exercises the segment-granular gate: with
// one table split into two key-range segments, reads declaring a range
// inside the recovered segment serve while reads touching the lagging
// segment refuse — and the refusal's fault-in carries the declared range so
// recovery can pull exactly that segment forward.
func TestSegmentStateGatesWireReads(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	var preTS tuple.Timestamp
	for i := int64(1); i <= 8; i++ {
		tx := cl.Coord.Begin()
		if err := tx.Insert(1, mk(i*50, i)); err != nil { // keys 50..400 straddle the 200 boundary
			t.Fatal(err)
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		preTS = ts
	}
	for _, wk := range cl.Workers {
		if err := wk.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Workers[0].Crash()
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	full := expr.FullKeyRange()
	low := expr.KeyRange{Lo: full.Lo, Hi: 200}
	high := expr.KeyRange{Lo: 200, Hi: full.Hi}
	w.SetObjectSegments(1, []int64{200}, worker.ObjNeedsRecovery, 0)

	c := dialWorker(t, cl, 0)
	scan := func(vis exec.Visibility, ts tuple.Timestamp, rng expr.KeyRange) *wire.Msg {
		if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: 901, Table: 1,
			Vis: uint8(vis), TS: int64(ts), KeyLo: rng.Lo, KeyHi: rng.Hi}); err != nil {
			t.Fatal(err)
		}
		return recvTerminal(t, c)
	}

	// The low segment finishes its historical copy through preTS; the high
	// segment hasn't started. Only reads confined to the low range serve.
	w.SetSegmentState(1, low, worker.ObjHistoricalCopy, preTS)
	if m := scan(exec.Historical, preTS, expr.KeyRange{Lo: 0, Hi: 200}); m.Type != wire.MsgScanEnd {
		t.Fatalf("historical scan of the copied segment answered %v (%s), want a served stream", m.Type, m.Text)
	}
	if m := scan(exec.Historical, preTS, expr.KeyRange{Lo: 200, Hi: 400}); m.Type != wire.MsgErr {
		t.Fatalf("historical scan of the uncopied segment answered %v, want refusal", m.Type)
	}
	if m := scan(exec.Historical, preTS, full); m.Type != wire.MsgErr {
		t.Fatalf("full-range historical scan answered %v, want refusal (one segment lags)", m.Type)
	}
	if m := scan(exec.Historical, preTS+1, expr.KeyRange{Lo: 0, Hi: 200}); m.Type != wire.MsgErr {
		t.Fatalf("historical scan past the segment's horizon answered %v, want refusal", m.Type)
	}
	if m := scan(exec.Current, preTS, expr.KeyRange{Lo: 0, Hi: 200}); m.Type != wire.MsgErr {
		t.Fatalf("current scan of a HistoricalCopy segment answered %v, want refusal", m.Type)
	}

	// A refused range-declared read faults in exactly that range. Installing
	// the hook also replays the ranges the scans above buffered while no
	// driver was attached, so drain until the declared range shows up.
	type faultIn struct {
		table int32
		rng   expr.KeyRange
	}
	faulted := make(chan faultIn, 16)
	w.SetFaultInHook(func(table int32, rng expr.KeyRange) { faulted <- faultIn{table, rng} })
	_ = scan(exec.Historical, preTS, expr.KeyRange{Lo: 200, Hi: 400})
	sawRange := false
	deadline := time.After(2 * time.Second)
	for !sawRange {
		select {
		case f := <-faulted:
			if f.table != 1 {
				t.Fatalf("fault-in hook fired for table %d, want 1", f.table)
			}
			if (f.rng == expr.KeyRange{Lo: 200, Hi: 400}) {
				sawRange = true
			}
		case <-deadline:
			t.Fatal("no fault-in carried the declared range [200,400)")
		}
	}
	w.SetFaultInHook(nil)

	// Catchup with a drained horizon ≥ the start timestamp serves current
	// reads on that segment; a later start timestamp still refuses.
	w.SetSegmentState(1, low, worker.ObjCatchup, preTS)
	if m := scan(exec.Current, preTS, expr.KeyRange{Lo: 0, Hi: 200}); m.Type != wire.MsgScanEnd {
		t.Fatalf("current scan of a drained Catchup segment answered %v (%s), want a served stream", m.Type, m.Text)
	}
	if m := scan(exec.Current, preTS+1, expr.KeyRange{Lo: 0, Hi: 200}); m.Type != wire.MsgErr {
		t.Fatalf("current scan starting past the drain horizon answered %v, want refusal", m.Type)
	}
	if m := scan(exec.Current, 0, expr.KeyRange{Lo: 0, Hi: 200}); m.Type != wire.MsgErr {
		t.Fatalf("current scan with no start timestamp answered %v, want refusal", m.Type)
	}

	// Both segments Ready: the full range serves again and the ping bitmap
	// carries one entry per segment.
	w.SetSegmentState(1, low, worker.ObjReady, preTS)
	w.SetSegmentState(1, high, worker.ObjReady, preTS)
	if m := scan(exec.Current, 0, full); m.Type != wire.MsgScanEnd {
		t.Fatalf("full-range current scan after both segments Ready answered %v (%s), want a served stream", m.Type, m.Text)
	} else if m.Count != 8 {
		t.Fatalf("full-range scan returned %d rows, want 8", m.Count)
	}
	_, ready, objs := comm.PingObjects(w.Addr(), time.Second)
	if !ready {
		t.Fatal("ping: site with all segments Ready must advertise readiness")
	}
	if len(objs) != 2 || objs[0].Lo != low.Lo || objs[0].Hi != 200 || objs[1].Lo != 200 || objs[1].Hi != high.Hi {
		t.Fatalf("ping bitmap segments: %+v", objs)
	}
}

// TestCreateTableMidRecoverySeedsReady pins the fix for tables created while
// the site is still recovering from a dirty start: a table that did not
// exist at the crash cannot be missing acknowledged commits, so it must come
// up Ready and serve immediately — the old seeding demoted it with
// everything else, refusing reads of brand-new empty tables for the whole
// recovery window.
func TestCreateTableMidRecoverySeedsReady(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	tx := cl.Coord.Begin()
	if err := tx.Insert(1, mk(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.Workers[0].Crash()
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := w.ObjectState(1); st != worker.ObjNeedsRecovery {
		t.Fatalf("pre-crash table: state = %v, want NeedsRecovery", st)
	}
	if err := w.CreateTable(2, testDesc(), 4); err != nil {
		t.Fatal(err)
	}
	if st, _ := w.ObjectState(2); st != worker.ObjReady {
		t.Fatalf("mid-recovery CreateTable seeded state %v, want Ready", st)
	}
	c := dialWorker(t, cl, 0)
	if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: 902, Table: 2,
		Vis: uint8(exec.Current)}); err != nil {
		t.Fatal(err)
	}
	if m := recvTerminal(t, c); m.Type != wire.MsgScanEnd {
		t.Fatalf("scan of a mid-recovery-created table answered %v (%s), want a served (empty) stream", m.Type, m.Text)
	}
}

// TestCleanShutdownSeedsReady pins the seeding rule: a clean shutdown writes
// the marker, so reopening the same directory brings every object up Ready —
// no recovery pass, no read refusals.
func TestCleanShutdownSeedsReady(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	tx := cl.Coord.Begin()
	if err := tx.Insert(1, mk(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	old := cl.Workers[1]
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := worker.Open(worker.Config{
		Site:        testutil.WorkerSiteID(1),
		Dir:         old.Cfg.Dir,
		Protocol:    txn.OptThreePC,
		Mode:        worker.HARBOR,
		LockTimeout: old.Cfg.LockTimeout,
		GroupCommit: true,
		Catalog:     cl.Catalog,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Workers[1] = w // hand ownership to cl.Close
	cl.Catalog.AddSite(testutil.WorkerSiteID(1), w.Addr())
	if w.NeedsRecovery() {
		t.Fatal("clean reopen must not need recovery")
	}
	if st, _ := w.ObjectState(1); st != worker.ObjReady {
		t.Fatalf("clean reopen: state = %v, want Ready", st)
	}
}

// TestWriteGateFaultIn is the write-side row of the gate matrix: a write
// landing on a NeedsRecovery segment is refused AND promotes the written
// key's range in the recovery hotness queue, exactly like a refused read;
// Catchup and Ready segments accept the write (the join replay and
// post-flip update routing both target Catchup segments).
func TestWriteGateFaultIn(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	var preTS tuple.Timestamp
	for i := int64(1); i <= 5; i++ {
		tx := cl.Coord.Begin()
		if err := tx.Insert(1, mk(i, i*10)); err != nil {
			t.Fatal(err)
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		preTS = ts
	}
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Workers[0].Crash()
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := w.ObjectState(1); st != worker.ObjNeedsRecovery {
		t.Fatalf("dirty open: state = %v, want NeedsRecovery", st)
	}
	type faultIn struct {
		table int32
		rng   expr.KeyRange
	}
	faulted := make(chan faultIn, 8)
	w.SetFaultInHook(func(table int32, rng expr.KeyRange) { faulted <- faultIn{table, rng} })

	c := dialWorker(t, cl, 0)
	// Call surfaces a MsgErr reply as a Go error; refusal == non-nil error.
	refused := func(m *wire.Msg) bool {
		_, err := c.Call(m)
		return err != nil
	}
	// NeedsRecovery refuses both write kinds, faulting in the written key.
	if !refused(&wire.Msg{Type: wire.MsgInsert, Txn: 901, Table: 1,
		Tuple: wire.TupleValues(mk(7, 0))}) {
		t.Fatal("insert into NeedsRecovery segment answered, want refusal")
	}
	select {
	case f := <-faulted:
		if f.table != 1 || f.rng != (expr.KeyRange{Lo: 7, Hi: 8}) {
			t.Fatalf("refused insert faulted in table %d range %+v, want table 1 [7,8)", f.table, f.rng)
		}
	default:
		t.Fatal("refused insert did not fire the fault-in hook")
	}
	if !refused(&wire.Msg{Type: wire.MsgDeleteKey, Txn: 901, Table: 1, Key: 3}) {
		t.Fatal("delete against NeedsRecovery segment answered, want refusal")
	}
	select {
	case f := <-faulted:
		if f.table != 1 || f.rng != (expr.KeyRange{Lo: 3, Hi: 4}) {
			t.Fatalf("refused delete faulted in table %d range %+v, want table 1 [3,4)", f.table, f.rng)
		}
	default:
		t.Fatal("refused delete did not fire the fault-in hook")
	}

	// Catchup accepts writes — no refusal, no fault-in.
	w.SetObjectState(1, worker.ObjCatchup, preTS)
	if m, err := c.Call(&wire.Msg{Type: wire.MsgInsert, Txn: 901, Table: 1,
		Tuple: wire.TupleValues(mk(8, 0))}); err != nil || m.Type != wire.MsgOK {
		t.Fatalf("insert into Catchup segment answered %v (%v), want OK", m, err)
	}
	// Ready accepts too.
	w.SetObjectState(1, worker.ObjReady, preTS)
	if m, err := c.Call(&wire.Msg{Type: wire.MsgInsert, Txn: 901, Table: 1,
		Tuple: wire.TupleValues(mk(9, 0))}); err != nil || m.Type != wire.MsgOK {
		t.Fatalf("insert into Ready segment answered %v (%v), want OK", m, err)
	}
	select {
	case f := <-faulted:
		t.Fatalf("accepted write fired the fault-in hook: %+v", f)
	default:
	}
	if _, err := c.Call(&wire.Msg{Type: wire.MsgAbort, Txn: 901}); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaAssignedWhileDownSeedsNeedsRecovery is the regression test for
// recovery of catalog-untracked objects: a replica the catalog assigned to
// this site while it was down (a join or rebalance targeting a dead site)
// has no local table and no state entry — without seeding it at Open, a
// cleanly-restarted site would default the object to Ready and serve an
// empty table. It must come up NeedsRecovery and refuse reads, while the
// tables the clean-shutdown marker actually vouches for stay Ready.
func TestReplicaAssignedWhileDownSeedsNeedsRecovery(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 2)
	// Table 2 lives only on worker 1.
	if err := cl.CreateReplicatedTable(2, testDesc(), 4, 1); err != nil {
		t.Fatal(err)
	}
	tx := cl.Coord.Begin()
	if err := tx.Insert(2, mk(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Worker 0 leaves cleanly; while it is down, a rebalance assigns it a
	// replica of table 2.
	if err := cl.Workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Catalog.AddReplicaRange(catalog.Replica{
		Site: testutil.WorkerSiteID(0), Table: 2,
		Range: expr.FullKeyRange(), SegPages: 4,
	}); err != nil {
		t.Fatal(err)
	}
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := w.ObjectState(1); st != worker.ObjReady {
		t.Fatalf("clean reopen: table 1 state = %v, want Ready", st)
	}
	if st, _ := w.ObjectState(2); st != worker.ObjNeedsRecovery {
		t.Fatalf("replica assigned while down: table 2 state = %v, want NeedsRecovery", st)
	}
	if !w.NeedsRecovery() {
		t.Fatal("site with a catalog-assigned but absent replica must report NeedsRecovery")
	}
	// The phantom object refuses reads rather than serving an empty table.
	c := dialWorker(t, cl, 0)
	if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: 902, Table: 2,
		Vis: uint8(exec.Current)}); err != nil {
		t.Fatal(err)
	}
	if m := recvTerminal(t, c); m.Type != wire.MsgErr {
		t.Fatalf("scan of the unrecovered phantom replica answered %v, want refusal", m.Type)
	}
}
