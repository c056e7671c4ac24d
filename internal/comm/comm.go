// Package comm is the TCP communication layer of §6.1.6: workers run
// multi-threaded servers listening for transaction requests; coordinators
// (and recovering sites) open client connections, one transaction per
// connection at a time, with connections recycled across transactions.
// Failure detection is the §5.5 mechanism actually used by the thesis
// implementation: "the detection of an abruptly closed TCP socket
// connection as a signal for failure".
package comm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"harbor/internal/obs"
	"harbor/internal/wire"
)

// DefaultDialTimeout bounds connection establishment when the caller gives
// no explicit timeout.
const DefaultDialTimeout = 5 * time.Second

// Transport hooks. Every outbound connection (Dial, DialTimeout, pool
// dials, Ping, EvictWorker's crash message) goes through Dialer, and every
// Listen'ed listener is passed through WrapListener before it starts
// accepting. The defaults are plain TCP; the faultnet package installs
// fault-injecting implementations so that coordinator fan-out, worker
// consensus, recovery streaming, and join replay can all be exercised under
// partitions, delay, and message loss with zero call-site changes. Both
// hooks must be swapped only while no cluster traffic is in flight (they
// are read without locks).
var (
	Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		return nc, nil
	}
	WrapListener = func(ln net.Listener) net.Listener { return ln }
)

// Conn wraps one TCP connection with buffered framed-message IO. Each
// direction owns a scratch buffer (wire.Encoder / wire.Decoder) so the
// steady state sends and receives without per-message allocations.
type Conn struct {
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	dec wire.Decoder // reads are single-goroutine per connection

	wmu sync.Mutex   // serialises writes (server pushes + responses)
	enc wire.Encoder // guarded by wmu

	callmu sync.Mutex // serialises request/response exchanges (Reserve)

	// reused is set by Pool.Get when the conn comes from the idle list
	// rather than a fresh dial; borrowers use it to decide whether a
	// transport failure on the first exchange means "site down" (fresh
	// conn) or possibly just "peer restarted since Put" (stale idle conn,
	// worth one retry on a fresh dial). Only meaningful between a Get and
	// the first exchange; written under the pool lock.
	reused bool
}

// NewConn wraps an established net.Conn.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)}
}

// Send writes and flushes one message.
func (c *Conn) Send(m *wire.Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.enc.WriteMsg(c.w, m); err != nil {
		return err
	}
	return c.w.Flush()
}

// SendNoFlush queues a message without flushing (tuple streaming).
func (c *Conn) SendNoFlush(m *wire.Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.WriteMsg(c.w, m)
}

// Flush flushes buffered writes.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.Flush()
}

// SendTimeout writes and flushes one message under a write deadline. A
// wedged peer whose socket buffer is full blocks a plain Send forever; the
// deadline converts that into ErrTimeout. The deadline pass leaves the
// connection's write stream in an unknown state, so callers must close the
// conn on ErrTimeout rather than reuse it.
func (c *Conn) SendTimeout(m *wire.Msg, d time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.nc.SetWriteDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	defer c.nc.SetWriteDeadline(time.Time{})
	err := c.enc.WriteMsg(c.w, m)
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return ErrTimeout
		}
		return err
	}
	return nil
}

// Recv reads one message (blocking).
func (c *Conn) Recv() (*wire.Msg, error) {
	return c.dec.ReadMsg(c.r)
}

// RecvTimeout reads one message with a deadline; a timeout returns
// ErrTimeout and leaves the connection usable.
func (c *Conn) RecvTimeout(d time.Duration) (*wire.Msg, error) {
	if err := c.nc.SetReadDeadline(time.Now().Add(d)); err != nil {
		return nil, err
	}
	defer c.nc.SetReadDeadline(time.Time{})
	m, err := c.dec.ReadMsg(c.r)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, ErrTimeout
		}
		return nil, err
	}
	return m, nil
}

// ErrTimeout is returned by RecvTimeout when the deadline passes.
var ErrTimeout = errors.New("comm: receive timed out")

// Reserve claims the connection for one request/response exchange. Most
// conns have a single owner (a pool checkout, a server handler) and never
// need a claim; when a conn is shared between goroutines — the
// coordinator's fan-out rounds and the §5.4.2 join replay both use a
// transaction's per-worker conns — each must hold the claim from its
// request Send until the matching response Recv, or two exchanges could
// interleave and swap responses.
func (c *Conn) Reserve() { c.callmu.Lock() }

// Release ends a Reserve claim.
func (c *Conn) Release() { c.callmu.Unlock() }

// Reused reports whether the connection came from a pool's idle list
// rather than a fresh dial (see the field comment).
func (c *Conn) Reused() bool { return c.reused }

// Close closes the connection.
func (c *Conn) Close() error { return c.nc.Close() }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// Call sends a request and waits for a single response, converting a
// MsgErr response into a Go error. Callers that must distinguish logical
// errors from transport failures use CallRaw instead.
func (c *Conn) Call(m *wire.Msg) (*wire.Msg, error) {
	resp, err := c.CallRaw(m)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// CallRaw sends a request and waits for a single response. An error return
// always means the connection itself failed (the fail-stop signal); MsgErr
// responses are returned as messages.
func (c *Conn) CallRaw(m *wire.Msg) (*wire.Msg, error) {
	if err := c.Send(m); err != nil {
		return nil, err
	}
	return c.Recv()
}

// CallRawTimeout is CallRaw with a response deadline. A deadline pass
// returns ErrTimeout; callers treat it like a transport failure and close
// the connection (a late response would desynchronise the request stream).
func (c *Conn) CallRawTimeout(m *wire.Msg, d time.Duration) (*wire.Msg, error) {
	if err := c.Send(m); err != nil {
		return nil, err
	}
	return c.RecvTimeout(d)
}

// Dial connects to a site address with the default dial timeout.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout connects to a site address, bounding connection
// establishment, through the package Dialer hook.
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	nc, err := Dialer(addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// Handler processes the messages of one server connection. The handler owns
// the connection until it returns; returning an error (or io.EOF from the
// peer) ends the connection.
type Handler interface {
	ServeConn(c *Conn)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(c *Conn)

// ServeConn calls the function.
func (f HandlerFunc) ServeConn(c *Conn) { f(c) }

// Server is a site's listening endpoint.
type Server struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func Listen(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ln = WrapListener(ln)
	s := &Server{ln: ln, handler: h, conns: map[*Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		c := NewConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				c.Close()
			}()
			s.handler.ServeConn(c)
		}()
	}
}

// Close stops accepting and abruptly closes every live connection — the
// fail-stop crash signal peers detect (§5.5). It waits for handler
// goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// DefaultMaxIdle caps a pool's idle list unless SetMaxIdle overrides it.
// Beyond the cap, returned connections are closed instead of parked, so a
// burst of concurrent transactions cannot grow the idle set without bound.
const DefaultMaxIdle = 16

// Pool is a small client-connection pool per remote address; coordinators
// recycle connections for subsequent transactions (§6.1.6).
type Pool struct {
	addr string

	mu          sync.Mutex
	idle        []*Conn
	maxIdle     int
	dialTimeout time.Duration

	// Registry-backed counters, optionally labelled {site=N}; rebindable
	// via Instrument: comm.dials (connections dialed because no idle one
	// existed), comm.reuses (Gets served from the idle list) and
	// comm.discards (connections closed by Put over the cap, or Discard).
	dials, reuses, discards *obs.Counter
}

// NewPool creates a pool for one address.
func NewPool(addr string) *Pool {
	p := &Pool{addr: addr, maxIdle: DefaultMaxIdle}
	p.Instrument(obs.NewRegistry(), "")
	return p
}

// Instrument rebinds the pool's counters to reg, labelled {site=<site>} when
// site is non-empty (a coordinator labels each worker's pool so the fan-out
// accounting stays per-replica). Call before concurrent use.
func (p *Pool) Instrument(reg *obs.Registry, site string) {
	var labels []string
	if site != "" {
		labels = []string{"site", site}
	}
	p.dials = reg.Counter(obs.Name("comm.dials", labels...))
	p.reuses = reg.Counter(obs.Name("comm.reuses", labels...))
	p.discards = reg.Counter(obs.Name("comm.discards", labels...))
}

// Addr returns the pool's target address.
func (p *Pool) Addr() string { return p.addr }

// SetDialTimeout bounds the pool's connection establishment (0 uses
// DefaultDialTimeout).
func (p *Pool) SetDialTimeout(d time.Duration) {
	p.mu.Lock()
	p.dialTimeout = d
	p.mu.Unlock()
}

// SetMaxIdle changes the idle-connection cap (n < 1 disables pooling).
func (p *Pool) SetMaxIdle(n int) {
	p.mu.Lock()
	p.maxIdle = n
	p.mu.Unlock()
}

// Get returns an idle connection (marked Reused) or dials a new one. A
// reused conn's peer may have restarted since Put — the §5.5 fail-stop
// signal then fires on the first exchange even though the site is live —
// so borrowers should treat a first-exchange transport error on a reused
// conn as "stale conn", retry once on Fresh, and only then conclude the
// site is down.
func (p *Pool) Get() (*Conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		c.reused = true
		p.reuses.Inc()
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return p.Fresh()
}

// Fresh always dials a new connection, bypassing the idle list (the stale-
// conn retry path).
func (p *Pool) Fresh() (*Conn, error) {
	p.mu.Lock()
	p.dials.Inc()
	d := p.dialTimeout
	p.mu.Unlock()
	return DialTimeout(p.addr, d)
}

// Put returns a healthy connection for reuse; over the idle cap it is
// closed instead.
func (p *Pool) Put(c *Conn) {
	p.mu.Lock()
	if len(p.idle) >= p.maxIdle {
		p.discards.Inc()
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// Discard closes a broken connection.
func (p *Pool) Discard(c *Conn) {
	p.mu.Lock()
	p.discards.Inc()
	p.mu.Unlock()
	c.Close()
}

// CloseAll drops every idle connection.
func (p *Pool) CloseAll() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// Ping checks liveness of a site. Both directions are bounded: a wedged
// peer that accepts but never drains its socket would otherwise block the
// write side forever.
func Ping(addr string, timeout time.Duration) bool {
	live, _ := PingReady(addr, timeout)
	return live
}

// PingReady is Ping plus the peer's readiness claim: ready reports the
// reply's FlagYes, which a worker sets only when it is not itself rejoining
// from a crash — i.e. it is a legitimate recovery source. Liveness checks
// use Ping and ignore readiness; recovery's buddy probe requires both.
func PingReady(addr string, timeout time.Duration) (live, ready bool) {
	live, ready, _ = PingObjects(addr, timeout)
	return live, ready
}

// PingObjects is PingReady plus the reply's per-object readiness list: one
// entry per replica object on the peer, carrying its recovery state
// (worker.ObjState code) and the historical horizon it can serve. A peer
// that is not site-ready may still list Ready objects — those completed
// their own catch-up and are legitimate recovery sources and read targets.
func PingObjects(addr string, timeout time.Duration) (live, ready bool, objs []wire.ObjReady) {
	c, err := DialTimeout(addr, timeout)
	if err != nil {
		return false, false, nil
	}
	defer c.Close()
	if err := c.SendTimeout(&wire.Msg{Type: wire.MsgPing}, timeout); err != nil {
		return false, false, nil
	}
	resp, err := c.RecvTimeout(timeout)
	live = err == nil && resp.Type == wire.MsgOK
	if !live {
		return false, false, nil
	}
	return true, resp.Flags&wire.FlagYes != 0, resp.Objs
}

// ErrCrashed is a sentinel used by servers simulating fail-stop.
var ErrCrashed = fmt.Errorf("comm: site crashed")
