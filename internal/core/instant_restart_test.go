package core_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/testutil"
	"harbor/internal/txn"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// drainRecoveryScan sends one raw recovery scan and reads the stream to its
// end, returning the terminal message (MsgScanEnd when served, MsgErr when
// refused).
func drainRecoveryScan(t *testing.T, addr string, m *wire.Msg) *wire.Msg {
	t.Helper()
	c, err := comm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	for {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Type {
		case wire.MsgScanEnd, wire.MsgErr:
			return resp
		case wire.MsgTupleBatch:
			// drain
		default:
			t.Fatalf("unexpected %v in recovery stream", resp.Type)
		}
	}
}

// TestPartialRecoveryServesReadyObjects pins the per-object half of the
// recovery state machine: when one object's recovery fails (its only buddy
// is down, K-safety exceeded) the site's other objects still complete, turn
// Ready, rejoin the update set, and serve reads — while the failed object
// keeps refusing recovery scans (the stale-recovery-source regression stays
// pinned, now per object instead of per site).
func TestPartialRecoveryServesReadyObjects(t *testing.T) {
	cl, err := testutil.NewCluster(testutil.ClusterConfig{
		Workers:     3,
		Protocol:    txn.OptThreePC,
		Mode:        worker.HARBOR,
		LockTimeout: time.Second,
		BaseDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	// Table 1 lives on {w0, w1}; table 2 on {w0, w2}. Taking w2 down leaves
	// table 2 without a recovery buddy while table 1 recovers normally.
	if err := cl.CreateReplicatedTable(1, testDesc(), 4, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateReplicatedTable(2, testDesc(), 4, 0, 2); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		commitInsert(t, cl, 1, i, i)
		commitInsert(t, cl, 2, i, -i)
	}
	preTS := commitInsert(t, cl, 1, 21, 21)
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Workers[2].Crash() // table 2's only buddy; stays down
	cl.Workers[0].Crash()
	for i := int64(22); i <= 30; i++ {
		commitInsert(t, cl, 1, i, i) // w1 keeps table 1 moving
	}

	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.New(w, cl.Catalog).RecoverSite(core.Options{Parallel: true})
	if err == nil {
		t.Fatal("RecoverSite succeeded although table 2 has no live buddy")
	}
	if !errors.Is(err, catalog.ErrKSafetyExceeded) {
		t.Fatalf("partial failure should surface ErrKSafetyExceeded, got: %v", err)
	}

	// Per-object outcome: table 1 Ready, table 2 pinned NeedsRecovery, and
	// the site as a whole still reports recovery pending.
	if st, _ := w.ObjectState(1); st != worker.ObjReady {
		t.Fatalf("table 1 state = %v, want Ready", st)
	}
	if st, _ := w.ObjectState(2); st != worker.ObjNeedsRecovery {
		t.Fatalf("table 2 state = %v, want NeedsRecovery", st)
	}
	if !w.NeedsRecovery() {
		t.Fatal("site with a failed object must still report NeedsRecovery")
	}

	// The Ready object serves: historical reads from the rejoined replica are
	// byte-identical to the healthy one's.
	fromRecovered, err := cl.Coord.Scan(1, coord.QueryOptions{
		Historical: true, AsOf: preTS, PreferSite: testutil.WorkerSiteID(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	fromHealthy, err := cl.Coord.Scan(1, coord.QueryOptions{
		Historical: true, AsOf: preTS, PreferSite: testutil.WorkerSiteID(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fromRecovered) != 21 || !reflect.DeepEqual(fromRecovered, fromHealthy) {
		t.Fatalf("historical read divergence: recovered %d rows, healthy %d rows",
			len(fromRecovered), len(fromHealthy))
	}
	// And it participates in new updates again.
	commitInsert(t, cl, 1, 31, 31)
	assertReplicasEqual(t, cl, 1, 0, 1)

	// Regression pin, per object: the failed object refuses recovery scans
	// (it is not a valid source), while the Ready object on the SAME site
	// serves them.
	addr, _ := cl.Catalog.SiteAddr(testutil.WorkerSiteID(0))
	full := expr.FullKeyRange()
	refused := drainRecoveryScan(t, addr, &wire.Msg{
		Type: wire.MsgRecoveryScan, Table: 2, TS: preTS,
		KeyLo: full.Lo, KeyHi: full.Hi,
		Flags: wire.FlagHasInsGT, InsGT: 0,
	})
	if refused.Type != wire.MsgErr {
		t.Fatalf("recovery scan of un-recovered table 2 answered %v, want refusal", refused.Type)
	}
	served := drainRecoveryScan(t, addr, &wire.Msg{
		Type: wire.MsgRecoveryScan, Table: 1, TS: preTS,
		KeyLo: full.Lo, KeyHi: full.Hi,
		Flags: wire.FlagHasInsGT, InsGT: preTS,
	})
	if served.Type != wire.MsgScanEnd {
		t.Fatalf("recovery scan of Ready table 1 answered %v (%s), want a served stream", served.Type, served.Text)
	}
}

// TestMidRecoveryHistoricalReadsMatchHealthyCluster pins the MTTR-split read
// path end to end: a restarted worker whose object is mid historical-copy
// (state HistoricalCopy, copied through T) serves coordinator-routed
// historical reads asOf ≤ T byte-identically to a healthy replica — the
// coordinator's per-object readiness probe routes onto it even though the
// site is still out of the update set — while reads past the copied horizon
// quietly fail over to the healthy buddy.
func TestMidRecoveryHistoricalReadsMatchHealthyCluster(t *testing.T) {
	cl := newCluster(t, 2)
	for i := int64(1); i <= 20; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	preTS := commitInsert(t, cl, 1, 21, 21)
	for _, w := range cl.Workers {
		if err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Workers[0].Crash()
	for i := int64(22); i <= 30; i++ {
		commitInsert(t, cl, 1, i, i) // first commit round marks w0 down
	}
	w, err := cl.RestartWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	// A dirty restart demotes every object.
	if st, _ := w.ObjectState(1); st != worker.ObjNeedsRecovery {
		t.Fatalf("dirty restart: state = %v, want NeedsRecovery", st)
	}
	// Stage the exact mid-Phase-2 situation: the disk state is the
	// checkpoint snapshot (nothing was flushed after it), which IS the
	// historical image at preTS; recovery would publish exactly this horizon
	// after its Phase 1 rewind.
	w.SetObjectState(1, worker.ObjHistoricalCopy, preTS)

	readsBefore := w.Obs().Counter(obs.Name("worker.table.reads", "table", "1")).Load()
	fromRecovering, err := cl.Coord.Scan(1, coord.QueryOptions{
		Historical: true, AsOf: preTS, PreferSite: testutil.WorkerSiteID(0),
	})
	if err != nil {
		t.Fatalf("historical read from mid-recovery site: %v", err)
	}
	fromHealthy, err := cl.Coord.Scan(1, coord.QueryOptions{
		Historical: true, AsOf: preTS, PreferSite: testutil.WorkerSiteID(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fromRecovering) != 21 || !reflect.DeepEqual(fromRecovering, fromHealthy) {
		t.Fatalf("mid-recovery historical read diverges: %d rows vs healthy %d",
			len(fromRecovering), len(fromHealthy))
	}
	if w.Obs().Counter(obs.Name("worker.table.reads", "table", "1")).Load() == readsBefore {
		t.Fatal("the mid-recovery site never saw the read; the coordinator routed elsewhere")
	}

	// Past the copied horizon the replica is not usable; the planner must
	// fall back to the healthy buddy and still answer in full.
	allRows, err := cl.Coord.Scan(1, coord.QueryOptions{
		Historical: true, PreferSite: testutil.WorkerSiteID(0), // asOf=HWM > preTS
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(allRows) != 30 {
		t.Fatalf("fallback read returned %d rows, want 30", len(allRows))
	}
	// Current-visibility reads never touch a non-Ready object either.
	curRows, err := cl.Coord.Scan(1, coord.QueryOptions{PreferSite: testutil.WorkerSiteID(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(curRows) != 30 {
		t.Fatalf("current read returned %d rows, want 30", len(curRows))
	}
}

// TestMidRecoverySegmentRoutedReadMatchesHealthy pins the segment-granular
// half of the routing: with BOTH replicas of a table restarted mid-recovery
// and each having copied a complementary half of the key space, neither site
// alone can serve, yet the coordinator composes the scan from w0's low
// segment and w1's high segment — and the merged answer is byte-identical to
// the healthy cluster's, for a historical read over HistoricalCopy segments
// and then for a current-visibility read over drained Catchup segments.
func TestMidRecoverySegmentRoutedReadMatchesHealthy(t *testing.T) {
	cl := newCluster(t, 2)
	for i := int64(1); i <= 40; i++ {
		commitInsert(t, cl, 1, i, i)
	}
	preTS := commitInsert(t, cl, 1, 41, 41)
	healthyHist, err := cl.Coord.Scan(1, coord.QueryOptions{Historical: true, AsOf: preTS})
	if err != nil {
		t.Fatal(err)
	}
	healthyCur, err := cl.Coord.Scan(1, coord.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(healthyHist) != 41 || len(healthyCur) != 41 {
		t.Fatalf("healthy baseline: %d historical / %d current rows, want 41/41",
			len(healthyHist), len(healthyCur))
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
	// Stage complementary mid-Phase-2 progress: each disk image is the
	// checkpoint snapshot (the historical image at preTS), and each site has
	// published exactly one half of the key space as copied through preTS.
	full := expr.FullKeyRange()
	low := expr.KeyRange{Lo: full.Lo, Hi: 20}
	high := expr.KeyRange{Lo: 20, Hi: full.Hi}
	w0.SetObjectSegments(1, []int64{20}, worker.ObjNeedsRecovery, 0)
	w0.SetSegmentState(1, low, worker.ObjHistoricalCopy, preTS)
	w1.SetObjectSegments(1, []int64{20}, worker.ObjNeedsRecovery, 0)
	w1.SetSegmentState(1, high, worker.ObjHistoricalCopy, preTS)

	reads0 := w0.Obs().Counter(obs.Name("worker.table.reads", "table", "1"))
	reads1 := w1.Obs().Counter(obs.Name("worker.table.reads", "table", "1"))
	before0, before1 := reads0.Load(), reads1.Load()
	split, err := cl.Coord.Scan(1, coord.QueryOptions{Historical: true, AsOf: preTS})
	if err != nil {
		t.Fatalf("segment-composed historical read: %v", err)
	}
	if !reflect.DeepEqual(split, healthyHist) {
		t.Fatalf("segment-composed historical read diverges: %d rows vs healthy %d",
			len(split), len(healthyHist))
	}
	if reads0.Load() == before0 || reads1.Load() == before1 {
		t.Fatalf("scan was not split across both recovering sites (reads w0 %d→%d, w1 %d→%d)",
			before0, reads0.Load(), before1, reads1.Load())
	}

	// Drained locked catch-up: the same complementary segments reach Catchup
	// with their horizons at the cluster HWM, so a *current* read (whose
	// start timestamp is that HWM) also composes across the two sites.
	w0.SetSegmentState(1, low, worker.ObjCatchup, preTS)
	w1.SetSegmentState(1, high, worker.ObjCatchup, preTS)
	time.Sleep(150 * time.Millisecond) // let the coordinator's readiness probe cache expire
	before0, before1 = reads0.Load(), reads1.Load()
	curSplit, err := cl.Coord.Scan(1, coord.QueryOptions{})
	if err != nil {
		t.Fatalf("segment-composed current read: %v", err)
	}
	if !reflect.DeepEqual(curSplit, healthyCur) {
		t.Fatalf("segment-composed current read diverges: %d rows vs healthy %d",
			len(curSplit), len(healthyCur))
	}
	if reads0.Load() == before0 || reads1.Load() == before1 {
		t.Fatalf("current scan was not split across both recovering sites (reads w0 %d→%d, w1 %d→%d)",
			before0, reads0.Load(), before1, reads1.Load())
	}
}
