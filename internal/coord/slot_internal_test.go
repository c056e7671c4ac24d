package coord

import (
	"slices"
	"sync"
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

// scriptedWorker answers each request on a connection with the frames
// serve returns for it, then waits for the next request, as a worker does.
// hangUp closes the connection after the frames instead, as a worker that
// crashes mid-stream does.
func scriptedWorker(t *testing.T, serve func(req *wire.Msg) (frames []*wire.Msg, hangUp bool)) string {
	t.Helper()
	srv, err := comm.Listen("127.0.0.1:0", comm.HandlerFunc(func(c *comm.Conn) {
		for {
			req, err := c.Recv()
			if err != nil {
				return
			}
			frames, hangUp := serve(req)
			for _, f := range frames {
				if err := c.SendNoFlush(f); err != nil {
					return
				}
			}
			if err := c.Flush(); err != nil || hangUp {
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

// fakeWorker answers every request on a connection with the canned frames.
func fakeWorker(t *testing.T, frames []*wire.Msg) string {
	return scriptedWorker(t, func(*wire.Msg) ([]*wire.Msg, bool) { return frames, false })
}

// fakeCoord is a coordinator whose only table has one full-range replica
// on each of the sites at addrs (site ids 1, 2, …). Reads plan onto site 1;
// with one addr a failed slot has no survivor to fail over to.
func fakeCoord(t *testing.T, addrs ...string) *Coordinator {
	t.Helper()
	cat := catalog.New(100)
	spec := &catalog.TableSpec{ID: 1, Desc: slotDesc(), SegPages: 4}
	var reps []catalog.Replica
	for i, addr := range addrs {
		site := catalog.SiteID(i + 1)
		cat.AddSite(site, addr)
		reps = append(reps, catalog.Replica{Site: site, Table: 1, Range: expr.FullKeyRange()})
	}
	if err := cat.AddTable(spec, reps...); err != nil {
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

// declared is the key range a scan request reads: the full range unless the
// request narrows it (KeyLo/KeyHi).
func declared(req *wire.Msg) expr.KeyRange {
	if req.KeyLo == 0 && req.KeyHi == 0 {
		return expr.FullKeyRange()
	}
	return expr.KeyRange{Lo: req.KeyLo, Hi: req.KeyHi}
}

// TestSlotDriverFailover drives the shared read loop against two full
// replicas; the first hangs up mid-stream. A row slot resumes on the buddy
// just past the last key it delivered, so every row reaches the sink once,
// in key order. An aggregate slot has no resume point: it is re-read over
// its whole range, and the partial frame the failed site sent is never
// merged.
func TestSlotDriverFailover(t *testing.T) {
	desc := slotDesc()
	end := &wire.Msg{Type: wire.MsgScanEnd}
	opt := QueryOptions{Historical: true, AsOf: 1}
	rowFrame := func(lo, hi int64) *wire.Msg {
		b := tuple.NewBatch(int(hi - lo + 1))
		for k := lo; k <= hi; k++ {
			b.Append(tuple.MustMake(desc, tuple.VInt(k), tuple.VInt(10)))
		}
		return &wire.Msg{Type: wire.MsgTupleBatch, Count: hi - lo + 1, Raw: b.EncodeTo(desc, nil)}
	}
	// buddy serves scan requests with reply and records what each declared.
	buddy := func(reply func(req *wire.Msg) []*wire.Msg) (string, func() []expr.KeyRange) {
		var mu sync.Mutex
		var seen []expr.KeyRange
		addr := scriptedWorker(t, func(req *wire.Msg) ([]*wire.Msg, bool) {
			if req.Type != wire.MsgScan {
				return nil, true
			}
			mu.Lock()
			seen = append(seen, declared(req))
			mu.Unlock()
			return reply(req), false
		})
		return addr, func() []expr.KeyRange {
			mu.Lock()
			defer mu.Unlock()
			return slices.Clone(seen)
		}
	}
	// dying sends frames in answer to a scan request, then hangs up.
	dying := func(frames ...*wire.Msg) string {
		return scriptedWorker(t, func(req *wire.Msg) ([]*wire.Msg, bool) {
			if req.Type != wire.MsgScan {
				return nil, true
			}
			return frames, true
		})
	}

	t.Run("scan", func(t *testing.T) {
		const k, n = 3, 8
		addr, seen := buddy(func(req *wire.Msg) []*wire.Msg {
			return []*wire.Msg{rowFrame(max(declared(req).Lo, 1), n), end}
		})
		co := fakeCoord(t, dying(rowFrame(1, k)), addr)
		var got []int64
		err := co.ScanStream(1, opt, func(rows []tuple.Tuple) error {
			for _, r := range rows {
				got = append(got, r.Key(desc))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for key := int64(1); key <= n; key++ {
			want = append(want, key)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("sink got keys %v, want %v", got, want)
		}
		resumed := []expr.KeyRange{{Lo: k + 1, Hi: expr.FullKeyRange().Hi}}
		if s := seen(); !slices.Equal(s, resumed) {
			t.Fatalf("buddy read %v, want %v", s, resumed)
		}
	})

	t.Run("aggregate", func(t *testing.T) {
		addr, seen := buddy(func(*wire.Msg) []*wire.Msg {
			return []*wire.Msg{{Type: wire.MsgAggBatch, Count: 1, Raw: wire.AppendAggRow(nil, 7)}, end}
		})
		co := fakeCoord(t, dying(&wire.Msg{Type: wire.MsgAggBatch, Count: 1, Raw: wire.AppendAggRow(nil, 5)}), addr)
		plan := exec.AggPlan{GroupField: -1, Aggs: []exec.AggSpec{{Fn: exec.Count}}}
		rows, err := co.Aggregate(1, opt, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Values[0].I64 != 7 {
			t.Fatalf("aggregate = %v, want count 7 (the failed slot's partial 5 must not be merged)", rows)
		}
		if s := seen(); !slices.Equal(s, []expr.KeyRange{expr.FullKeyRange()}) {
			t.Fatalf("buddy read %v, want the whole range", s)
		}
		if n := co.Obs().Counter("coord.agg.failovers").Load(); n != 1 {
			t.Fatalf("coord.agg.failovers = %d, want 1", n)
		}
	})
}
