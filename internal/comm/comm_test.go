package comm

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"harbor/internal/obs"
	"harbor/internal/wire"
)

// poolCounters binds p to a fresh registry and returns its dial, reuse and
// discard counters, as a coordinator's metrics snapshot reads them.
func poolCounters(p *Pool) (dials, reuses, discards *obs.Counter) {
	reg := obs.NewRegistry()
	p.Instrument(reg, "")
	return reg.Counter("comm.dials"), reg.Counter("comm.reuses"), reg.Counter("comm.discards")
}

// echoHandler responds OK to pings and echoes text otherwise.
func echoHandler(c *Conn) {
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch m.Type {
		case wire.MsgPing:
			if err := c.Send(&wire.Msg{Type: wire.MsgOK}); err != nil {
				return
			}
		default:
			if err := c.Send(&wire.Msg{Type: wire.MsgOK, Text: m.Text}); err != nil {
				return
			}
		}
	}
}

func startEcho(t *testing.T) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", HandlerFunc(echoHandler))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCallRoundTrip(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&wire.Msg{Type: wire.MsgScan, Text: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hello" {
		t.Fatalf("echo returned %q", resp.Text)
	}
}

func TestPing(t *testing.T) {
	s := startEcho(t)
	if !Ping(s.Addr(), time.Second) {
		t.Fatal("ping failed against live server")
	}
	s.Close()
	if Ping(s.Addr(), 200*time.Millisecond) {
		t.Fatal("ping succeeded against closed server")
	}
}

func TestServerCloseDropsConnections(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&wire.Msg{Type: wire.MsgPing}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The abrupt close is the crash signal: the next read must error.
	if err := c.Send(&wire.Msg{Type: wire.MsgPing}); err == nil {
		if _, err := c.Recv(); err == nil {
			t.Fatal("connection survived server crash")
		}
	}
}

func TestRecvTimeout(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RecvTimeout(50 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
	// The connection remains usable after a timeout.
	resp, err := c.Call(&wire.Msg{Type: wire.MsgPing})
	if err != nil || resp.Type != wire.MsgOK {
		t.Fatalf("connection unusable after timeout: %v", err)
	}
}

func TestPoolRecyclesConnections(t *testing.T) {
	s := startEcho(t)
	p := NewPool(s.Addr())
	defer p.CloseAll()
	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1)
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("pool did not recycle the idle connection")
	}
	p.Put(c2)
}

func TestPoolCapsIdleConnections(t *testing.T) {
	s := startEcho(t)
	p := NewPool(s.Addr())
	defer p.CloseAll()
	dials, _, discards := poolCounters(p)
	p.SetMaxIdle(2)
	// Check out 5 connections concurrently, then return them all: only 2
	// may be parked, the rest must be closed and counted as discards.
	var conns []*Conn
	for i := 0; i < 5; i++ {
		c, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		p.Put(c)
	}
	if n := dials.Load(); n != 5 {
		t.Fatalf("dials = %d, want 5", n)
	}
	if n := discards.Load(); n != 3 {
		t.Fatalf("discards = %d, want 3 (idle cap 2)", n)
	}
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 2 {
		t.Fatalf("idle list holds %d conns, want 2", idle)
	}
}

func TestPoolStatsCountReuse(t *testing.T) {
	s := startEcho(t)
	p := NewPool(s.Addr())
	defer p.CloseAll()
	dials, reuses, discards := poolCounters(p)
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c)
	for i := 0; i < 3; i++ {
		c, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		p.Put(c)
	}
	if d, r := dials.Load(), reuses.Load(); d != 1 || r != 3 {
		t.Fatalf("%d dials / %d reuses, want 1 dial / 3 reuses", d, r)
	}
	bad, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Discard(bad)
	if n := discards.Load(); n != 1 {
		t.Fatalf("discards = %d, want 1", n)
	}
}

func TestCallRawTimeout(t *testing.T) {
	// A server that never answers scans: CallRawTimeout must return
	// ErrTimeout instead of blocking forever.
	srv, err := Listen("127.0.0.1:0", HandlerFunc(func(c *Conn) {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CallRawTimeout(&wire.Msg{Type: wire.MsgPing}, 100*time.Millisecond); err != ErrTimeout {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startEcho(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				resp, err := c.Call(&wire.Msg{Type: wire.MsgScan, Text: "x"})
				if err != nil || resp.Text != "x" {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTupleStreaming(t *testing.T) {
	// Server streams N one-row keys-only batch frames then a scan end.
	const n = 1000
	srv, err := Listen("127.0.0.1:0", HandlerFunc(func(c *Conn) {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if m.Type != wire.MsgScan {
				return
			}
			for i := 0; i < n; i++ {
				frame := &wire.Msg{Type: wire.MsgTupleBatch, Count: 1, Flags: wire.FlagYes,
					Raw: wire.AppendKeyRow(nil, int64(i), 0)}
				if err := c.SendNoFlush(frame); err != nil {
					return
				}
			}
			if err := c.SendNoFlush(&wire.Msg{Type: wire.MsgScanEnd, Count: n}); err != nil {
				return
			}
			if err := c.Flush(); err != nil {
				return
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&wire.Msg{Type: wire.MsgScan}); err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		m, err := c.Recv()
		if err == io.EOF {
			t.Fatal("stream ended prematurely")
		}
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == wire.MsgScanEnd {
			if m.Count != n {
				t.Fatalf("scan end count %d", m.Count)
			}
			break
		}
		if key, _ := wire.KeyRow(m.Raw, 0); key != int64(count) {
			t.Fatalf("out of order: got %d want %d", key, count)
		}
		count++
	}
	if count != n {
		t.Fatalf("received %d tuples", count)
	}
}

// TestReserveSerializesSharedCalls drives many request/response exchanges
// from concurrent goroutines over ONE shared conn, each holding the
// Reserve claim from send to receive (the coordinator's fan-out rounds and
// the join replay share per-transaction conns this way). Every goroutine
// must read the response to its own request, never a sibling's.
func TestReserveSerializesSharedCalls(t *testing.T) {
	s := startEcho(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const goroutines = 8
	const calls = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := fmt.Sprintf("g%d-%d", g, i)
				c.Reserve()
				resp, err := c.Call(&wire.Msg{Type: wire.MsgScan, Text: want})
				c.Release()
				if err != nil {
					errs <- err
					return
				}
				if resp.Text != want {
					errs <- fmt.Errorf("exchange swapped: sent %q, got %q", want, resp.Text)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
