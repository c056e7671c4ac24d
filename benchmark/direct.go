package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"harbor/internal/comm"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/wire"
)

// maxClients is nproc on the reference host: no load generator may run more
// client goroutines, or hold more connections of its own, than this.
const maxClients = 2

var (
	liveClients atomic.Int32
	liveConns   atomic.Int32
)

// runClients runs one closed-loop client goroutine per function and waits
// for all of them. It refuses to exceed maxClients.
func runClients(fns ...func()) {
	if n := liveClients.Add(int32(len(fns))); n > maxClients {
		panic(fmt.Sprintf("benchmark: %d client goroutines, the cap is %d", n, maxClients))
	}
	defer liveClients.Add(-int32(len(fns)))
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// directScanTxn is the transaction id the benchmark's own raw scans carry;
// the coordinator's id source starts at 1 and never reaches it.
const directScanTxn = 1 << 40

// siteConn is a connection of the benchmark's own to one worker, used for
// raw MsgScan requests that bypass the coordinator: the recovery probe, the
// direct-worker scan baseline and the replica dumps of the checker.
type siteConn struct{ c *comm.Conn }

func dialSite(addr string) (*siteConn, error) {
	if n := liveConns.Add(1); n > maxClients {
		liveConns.Add(-1)
		panic(fmt.Sprintf("benchmark: %d connections of its own, the cap is %d", n, maxClients))
	}
	c, err := comm.Dial(addr)
	if err != nil {
		liveConns.Add(-1)
		return nil, err
	}
	return &siteConn{c: c}, nil
}

func (s *siteConn) close() {
	s.c.Close()
	liveConns.Add(-1)
}

// stream sends one raw scan request and hands every batch frame to onFrame
// (which must not keep the frame's Raw). It returns the end frame's count.
// A refusal — the range is not servable yet — is errRefused.
func (s *siteConn) stream(m *wire.Msg, onFrame func(*wire.Msg)) (int64, error) {
	if err := s.c.Send(m); err != nil {
		return 0, err
	}
	for {
		r, err := s.c.Recv()
		if err != nil {
			return 0, err
		}
		switch r.Type {
		case wire.MsgScanEnd:
			return r.Count, nil
		case wire.MsgErr:
			return 0, fmt.Errorf("%w: %v", errRefused, r.Err())
		case wire.MsgTupleBatch, wire.MsgAggBatch:
			if onFrame != nil {
				onFrame(r)
			}
		default:
			return 0, fmt.Errorf("unexpected %v in scan stream", r.Type)
		}
	}
}

func scanMsg(table int32, vis exec.Visibility, asOf tuple.Timestamp, rng expr.KeyRange, desc *tuple.Desc) *wire.Msg {
	m := &wire.Msg{Type: wire.MsgScan, Txn: directScanTxn, Table: table, Vis: uint8(vis), TS: asOf}
	if rng != expr.FullKeyRange() {
		m.Pred = rng.Pred(desc).Terms
		m.KeyLo, m.KeyHi = rng.Lo, rng.Hi
	}
	return m
}

// scan reads the rows of rng visible under vis as of asOf, handing each
// frame's packed rows to onBatch, and returns the row count.
func (s *siteConn) scan(table int32, vis exec.Visibility, asOf tuple.Timestamp, rng expr.KeyRange,
	desc *tuple.Desc, onBatch func(raw []byte)) (int64, error) {
	var onFrame func(*wire.Msg)
	if onBatch != nil {
		onFrame = func(m *wire.Msg) { onBatch(m.Raw) }
	}
	return s.stream(scanMsg(table, vis, asOf, rng, desc), onFrame)
}

// digest is a cheap fingerprint of the rows of rng visible as of asOf: a
// pushed-down aggregate returning (group, count, sum f0, sum f1) per group,
// in group order. Two replicas that agree on it hold the same number of
// rows with the same payload sums in every group.
func (s *siteConn) digest(table int32, asOf tuple.Timestamp, rng expr.KeyRange, desc *tuple.Desc) ([]int64, error) {
	m := scanMsg(table, exec.Historical, asOf, rng, desc)
	m.AggGroup = int32(desc.FieldIndex("g"))
	m.Aggs = []wire.AggCol{
		{Fn: uint8(exec.Count)},
		{Fn: uint8(exec.Sum), Field: int32(desc.FieldIndex("f0"))},
		{Fn: uint8(exec.Sum), Field: int32(desc.FieldIndex("f1"))},
	}
	const ncols = 4
	var out []int64
	var ferr error
	_, err := s.stream(m, func(f *wire.Msg) {
		n, err := wire.CheckBatch(f, wire.AggStride(ncols))
		if err != nil {
			ferr = err
			return
		}
		for i := 0; i < n; i++ {
			out = wire.AggRow(f.Raw, i, ncols, out)
		}
	})
	if err == nil {
		err = ferr
	}
	return out, err
}

var errRefused = fmt.Errorf("scan refused")
