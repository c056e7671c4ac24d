package coord

import (
	"sync/atomic"
	"testing"
	"time"

	"harbor/internal/comm"
	"harbor/internal/obs"
	"harbor/internal/wire"
)

// TestBorrowRetriesStalePooledConn reproduces the stale-pool hazard:
// Pool.Get hands out an idle conn whose peer closed it since Put (worker
// restarted, server-side idle sweep). The first exchange fails at the
// transport level even though the site is live; borrow must retry once on
// a fresh dial instead of reporting failure (which callers translate into
// MarkDown — taking a healthy site's replicas out of the update set).
func TestBorrowRetriesStalePooledConn(t *testing.T) {
	var served atomic.Int64
	handlerDone := make(chan struct{}, 8)
	// Each conn answers exactly one call, then the handler returns and the
	// server closes the conn — so a conn Put back after one use is dead by
	// the time the pool hands it out again.
	s, err := comm.Listen("127.0.0.1:0", comm.HandlerFunc(func(c *comm.Conn) {
		defer func() { handlerDone <- struct{}{} }()
		m, err := c.Recv()
		if err != nil {
			return
		}
		served.Add(1)
		_ = c.Send(&wire.Msg{Type: wire.MsgOK, Text: m.Text})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	co := &Coordinator{}
	p := comm.NewPool(s.Addr())
	defer p.CloseAll()
	reg := obs.NewRegistry()
	p.Instrument(reg, "")

	call := func(c *comm.Conn) error {
		_, err := c.Call(&wire.Msg{Type: wire.MsgBegin})
		return err
	}

	// Populate the pool with a conn the server will have closed.
	conn, err := co.borrow(p, call)
	if err != nil {
		t.Fatalf("first borrow: %v", err)
	}
	p.Put(conn)
	// Wait for the server to abandon (and so close) the pooled conn.
	select {
	case <-handlerDone:
	case <-time.After(2 * time.Second):
		t.Fatal("server handler never finished")
	}

	// The pooled conn is stale; borrow must succeed via a fresh dial.
	conn, err = co.borrow(p, call)
	if err != nil {
		t.Fatalf("borrow with stale pooled conn: %v (should retry on fresh dial)", err)
	}
	conn.Close()
	if got := served.Load(); got != 2 {
		t.Fatalf("server served %d calls, want 2", got)
	}
	if r, d := reg.Counter("comm.reuses").Load(), reg.Counter("comm.dials").Load(); r != 1 || d != 2 {
		t.Fatalf("pool counted %d reuses + %d dials, want 1 reuse + 2 dials", r, d)
	}

	// Negative control: when the site really is down, the fresh-dial retry
	// fails too and borrow reports the error.
	s.Close()
	if _, err := co.borrow(p, call); err == nil {
		t.Fatal("borrow succeeded against a dead site")
	}
}
