package worker_test

import (
	"reflect"
	"sort"
	"testing"

	"harbor/internal/comm"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// dialWorker opens a raw connection to a worker.
func dialWorker(t *testing.T, cl *testutil.Cluster, i int) *comm.Conn {
	t.Helper()
	addr, _ := cl.Catalog.SiteAddr(testutil.WorkerSiteID(i))
	c, err := comm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// scanRow is one row of a drained stream: the (key, deletion time) pair
// of a keys-only frame, or the full values of a row frame.
type scanRow struct {
	key  int64
	del  tuple.Timestamp
	vals []tuple.Value
}

// drainScan collects a tuple stream after a scan request was sent,
// unpacking each batch frame into its rows.
func drainScan(t *testing.T, c *comm.Conn) []scanRow {
	t.Helper()
	desc := testDesc()
	var out []scanRow
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch m.Type {
		case wire.MsgScanEnd:
			if int(m.Count) != len(out) {
				t.Fatalf("scan end count %d, received %d", m.Count, len(out))
			}
			return out
		case wire.MsgErr:
			t.Fatalf("scan error: %s", m.Text)
		case wire.MsgTupleBatch:
			if m.Flags&wire.FlagYes != 0 {
				n, err := wire.CheckBatch(m, wire.KeysOnlyStride)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					k, d := wire.KeyRow(m.Raw, i)
					out = append(out, scanRow{key: k, del: d})
				}
			} else {
				n, err := wire.CheckBatch(m, desc.Width())
				if err != nil {
					t.Fatal(err)
				}
				b := tuple.NewBatch(n)
				if err := b.DecodeBatch(desc, m.Raw); err != nil {
					t.Fatal(err)
				}
				for _, tp := range b.Rows() {
					out = append(out, scanRow{vals: tp.Values})
				}
			}
		default:
			t.Fatalf("unexpected %v in stream", m.Type)
		}
	}
}

func TestWireScanModes(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 1)
	// Two commits and one delete: history to scan in every mode.
	tx := cl.Coord.Begin()
	if err := tx.Insert(1, mk(1, 10)); err != nil {
		t.Fatal(err)
	}
	ts1, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	tx2 := cl.Coord.Begin()
	if err := tx2.DeleteKey(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert(1, mk(2, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	c := dialWorker(t, cl, 0)

	// Current scan: only key 2.
	if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: 900, Table: 1, Vis: uint8(exec.Current)}); err != nil {
		t.Fatal(err)
	}
	rows := drainScan(t, c)
	if len(rows) != 1 || rows[0].vals[2].I64 != 2 {
		t.Fatalf("current scan: %v", rows)
	}
	// Historical scan as of ts1: only key 1, deletion masked.
	if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: 900, Table: 1, Vis: uint8(exec.Historical), TS: ts1}); err != nil {
		t.Fatal(err)
	}
	rows = drainScan(t, c)
	if len(rows) != 1 || rows[0].vals[2].I64 != 1 {
		t.Fatalf("historical scan: %v", rows)
	}
	if rows[0].vals[tuple.FieldDelTS].I64 != 0 {
		t.Fatalf("historical scan leaked deletion time: %v", rows[0].vals)
	}
	// See-deleted: both versions.
	if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: 900, Table: 1, Vis: uint8(exec.SeeDeleted)}); err != nil {
		t.Fatal(err)
	}
	if rows = drainScan(t, c); len(rows) != 2 {
		t.Fatalf("see-deleted scan: %d rows", len(rows))
	}
	// Predicate pushdown over the wire.
	desc := testDesc()
	pred := expr.True.And(expr.Term{Field: desc.FieldIndex("v"), Op: expr.GE, Value: tuple.VInt(15)})
	if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: 900, Table: 1, Vis: uint8(exec.SeeDeleted), Pred: pred.Terms}); err != nil {
		t.Fatal(err)
	}
	if rows = drainScan(t, c); len(rows) != 1 || rows[0].vals[2].I64 != 2 {
		t.Fatalf("filtered scan: %v", rows)
	}
	// Release the read transaction.
	if _, err := c.Call(&wire.Msg{Type: wire.MsgEndRead, Txn: 900}); err != nil {
		t.Fatal(err)
	}
}

func TestWireRecoveryScanPrunesToNothing(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 1)
	for i := int64(1); i <= 20; i++ {
		tx := cl.Coord.Begin()
		if err := tx.Insert(1, mk(i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c := dialWorker(t, cl, 0)
	// del > 100 matches nothing and every segment prunes: the stream must
	// be empty, NOT a full-table scan (regression test for the nil-plan
	// bug where "all pruned" decayed into "scan everything").
	msg := &wire.Msg{
		Type: wire.MsgRecoveryScan, Table: 1,
		KeyLo: -1 << 62, KeyHi: 1 << 62,
		Flags: wire.FlagYes | wire.FlagHasDelGT, DelGT: 100,
	}
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	if rows := drainScan(t, c); len(rows) != 0 {
		t.Fatalf("pruned recovery scan returned %d rows", len(rows))
	}
}

func TestWireRecoveryScanKeyRange(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 1)
	for i := int64(1); i <= 10; i++ {
		tx := cl.Coord.Begin()
		if err := tx.Insert(1, mk(i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c := dialWorker(t, cl, 0)
	// The §5.1 recovery predicate: only keys in [3, 7).
	msg := &wire.Msg{
		Type: wire.MsgRecoveryScan, Table: 1,
		KeyLo: 3, KeyHi: 7,
		Flags: wire.FlagHasInsGT, InsGT: 0,
	}
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	rows := drainScan(t, c)
	if len(rows) != 4 {
		t.Fatalf("key-range recovery scan: %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		key := r.vals[2].I64
		if key < 3 || key >= 7 {
			t.Fatalf("key %d outside recovery predicate", key)
		}
	}
}

// TestWireScanFramingEquivalence: for every stream shape a worker serves —
// SEE DELETED client scans, keys-only recovery projections, full-row
// recovery scans — the batch frames must carry exactly the rows, in the
// order, of an in-process SeqScan over the worker's own store with the
// same spec (a client scan's stream is sorted by key).
func TestWireScanFramingEquivalence(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 1)
	for i := int64(1); i <= 30; i++ {
		tx := cl.Coord.Begin()
		if err := tx.Insert(1, mk(i, i*10)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 30; i += 6 {
		tx := cl.Coord.Begin()
		if err := tx.DeleteKey(1, i); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	desc := testDesc()
	recRange := expr.KeyRange{Lo: -1 << 62, Hi: 1 << 62}.Pred(desc)
	c := dialWorker(t, cl, 0)
	cases := []struct {
		label    string
		req      wire.Msg
		spec     exec.ScanSpec
		keysOnly bool
	}{
		{"see-deleted", wire.Msg{Type: wire.MsgScan, Txn: 901, Table: 1, Vis: uint8(exec.SeeDeleted)},
			exec.ScanSpec{Table: 1, Vis: exec.SeeDeleted}, false},
		{"keys-only", wire.Msg{Type: wire.MsgRecoveryScan, Table: 1,
			KeyLo: -1 << 62, KeyHi: 1 << 62,
			Flags: wire.FlagYes | wire.FlagHasDelGT, DelGT: 0},
			exec.ScanSpec{Table: 1, Vis: exec.SeeDeleted, Pred: recRange.And(
				expr.Term{Field: tuple.FieldDelTS, Op: expr.GT, Value: tuple.VInt(0)})}, true},
		{"full-rows", wire.Msg{Type: wire.MsgRecoveryScan, Table: 1,
			KeyLo: -1 << 62, KeyHi: 1 << 62,
			Flags: wire.FlagHasInsGT, InsGT: 0},
			exec.ScanSpec{Table: 1, Vis: exec.SeeDeleted, Pred: recRange.And(
				expr.Term{Field: tuple.FieldInsTS, Op: expr.GT, Value: tuple.VInt(0)},
				expr.Term{Field: tuple.FieldInsTS, Op: expr.NE, Value: tuple.VInt(tuple.Uncommitted)})}, false},
	}
	for _, tc := range cases {
		req := tc.req
		if err := c.Send(&req); err != nil {
			t.Fatal(err)
		}
		got := drainScan(t, c)
		rows, err := exec.Drain(exec.NewSeqScan(cl.Workers[0].Store, tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		if tc.req.Type == wire.MsgScan {
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].Key(desc) < rows[j].Key(desc) })
		}
		want := make([]scanRow, len(rows))
		for i, r := range rows {
			if tc.keysOnly {
				want[i] = scanRow{key: r.Key(desc), del: r.DelTS()}
			} else {
				want[i] = scanRow{vals: r.Values}
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: empty stream; case is vacuous", tc.label)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: streamed %d rows, in-process scan %d", tc.label, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: row %d differs: streamed %+v, in-process %+v", tc.label, i, got[i], want[i])
			}
		}
	}
	if _, err := c.Call(&wire.Msg{Type: wire.MsgEndRead, Txn: 901}); err != nil {
		t.Fatal(err)
	}
}

func TestWireTableMeta(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 1)
	tx := cl.Coord.Begin()
	if err := tx.Insert(1, mk(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c := dialWorker(t, cl, 0)
	resp, err := c.Call(&wire.Msg{Type: wire.MsgTableMeta, Table: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || resp.Key != 1 {
		t.Fatalf("table meta: %+v", resp)
	}
	if _, err := c.Call(&wire.Msg{Type: wire.MsgTableMeta, Table: 99}); err == nil {
		t.Fatal("meta of unknown table should error")
	}
}
