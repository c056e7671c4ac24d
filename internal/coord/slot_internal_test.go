package coord

import (
	"testing"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
)

func slotDesc() *tuple.Desc {
	return tuple.MustDesc("id",
		tuple.FieldDef{Name: "id", Type: tuple.Int64},
		tuple.FieldDef{Name: "v", Type: tuple.Int32},
	)
}

// fakeWorker answers every scan request on a connection with the canned
// frames, then waits for the next request, as a worker does.
func fakeWorker(t *testing.T, frames []*wire.Msg) string {
	t.Helper()
	srv, err := comm.Listen("127.0.0.1:0", comm.HandlerFunc(func(c *comm.Conn) {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
			for _, f := range frames {
				if err := c.SendNoFlush(f); err != nil {
					return
				}
			}
			if err := c.Flush(); err != nil {
				return
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// fakeCoord is a coordinator whose only table has one full-range replica,
// on the site at addr: a failed slot has no survivor to fail over to.
func fakeCoord(t *testing.T, addr string) *Coordinator {
	t.Helper()
	cat := catalog.New(100)
	cat.AddSite(1, addr)
	spec := &catalog.TableSpec{ID: 1, Desc: slotDesc(), SegPages: 4}
	if err := cat.AddTable(spec, catalog.Replica{Site: 1, Table: 1, Range: expr.FullKeyRange()}); err != nil {
		t.Fatal(err)
	}
	co, err := New(Config{Site: 100, Protocol: txn.OptThreePC, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// TestReadSlotRejectsBadStreams drives ScanStream and Aggregate against a
// worker that answers with a wrong frame type, a frame that fails
// wire.CheckBatch, or a MsgErr after the first frame. Each must fail the
// query and close the conn instead of returning it to the pool, where the
// next borrower would read the rest of the broken stream. A clean stream
// and a refusal in place of the first frame leave the conn reusable, which
// shows the pool check can see a recycled conn.
func TestReadSlotRejectsBadStreams(t *testing.T) {
	desc := slotDesc()
	b := tuple.NewBatch(1)
	b.Append(tuple.MustMake(desc, tuple.VInt(1), tuple.VInt(10)))
	rowFrame := &wire.Msg{Type: wire.MsgTupleBatch, Count: 1, Raw: b.EncodeTo(desc, nil)}
	aggFrame := &wire.Msg{Type: wire.MsgAggBatch, Count: 1, Raw: wire.AppendAggRow(nil, 5)}
	end := &wire.Msg{Type: wire.MsgScanEnd, Count: 1}
	refusal := &wire.Msg{Type: wire.MsgErr, Text: "worker says no"}
	opt := QueryOptions{Historical: true, AsOf: 1}
	plan := exec.AggPlan{GroupField: -1, Aggs: []exec.AggSpec{{Fn: exec.Count}}}

	queries := []struct {
		name        string
		good, wrong *wire.Msg
		run         func(co *Coordinator) error
	}{
		{"scan", rowFrame, aggFrame, func(co *Coordinator) error {
			_, err := co.Scan(1, opt)
			return err
		}},
		{"aggregate", aggFrame, rowFrame, func(co *Coordinator) error {
			_, err := co.Aggregate(1, opt, plan)
			return err
		}},
	}
	for _, q := range queries {
		malformed := *q.good
		malformed.Count++
		cases := []struct {
			name     string
			frames   []*wire.Msg
			wantErr  bool
			recycled bool
		}{
			{"clean end", []*wire.Msg{q.good, end}, false, true},
			{"refused", []*wire.Msg{refusal}, true, true},
			{"wrong frame type", []*wire.Msg{q.wrong, end}, true, false},
			{"malformed frame", []*wire.Msg{&malformed, end}, true, false},
			{"mid-stream error", []*wire.Msg{q.good, refusal}, true, false},
		}
		for _, tc := range cases {
			t.Run(q.name+"/"+tc.name, func(t *testing.T) {
				co := fakeCoord(t, fakeWorker(t, tc.frames))
				if err := q.run(co); (err != nil) != tc.wantErr {
					t.Fatalf("query error = %v, want error: %v", err, tc.wantErr)
				}
				p, err := co.pool(1)
				if err != nil {
					t.Fatal(err)
				}
				c, err := p.Get()
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if c.Reused() != tc.recycled {
					t.Fatalf("conn returned to the pool: %v, want %v", c.Reused(), tc.recycled)
				}
			})
		}
	}
}
