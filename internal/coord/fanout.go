// Coordinator fan-out: every network round the coordinator drives — update
// distribution (§4.1), the commit/abort phases (§4.3), distributed scans,
// and the §5.4.2 join replay — talks to its targets concurrently, so a
// round costs the *slowest* replica's RTT instead of the sum (the cost
// model of §4.3 and Table 4.1 assumes exactly this). Each target uses a
// dedicated per-transaction comm.Conn (or a pool connection checked out for
// the scan), so rounds of different transactions never share a socket.
// Within one transaction a per-worker conn IS shared — the §5.4.2 join
// replay sends on it too — so every request/response exchange holds the
// conn's Reserve claim from send to receive (see comm.Conn.Reserve).
package coord

import (
	"sync"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/obs"
	"harbor/internal/wire"
)

// defaultFanoutLimit bounds in-flight goroutines per round when
// Config.FanoutLimit is unset. Rounds with more targets than the limit
// still complete; excess targets queue for a slot.
const defaultFanoutLimit = 32

// fanTarget is one destination of a coordinator round: a site and the
// dedicated connection the round may use.
type fanTarget struct {
	site catalog.SiteID
	conn *comm.Conn
}

// fanResult is one target's outcome. err != nil always means the transport
// failed (the §5.5 fail-stop signal) — logical errors arrive as MsgErr
// responses in resp.
type fanResult struct {
	site catalog.SiteID
	conn *comm.Conn
	resp *wire.Msg
	err  error
}

// fanEach runs f(i, items[i]) for every item concurrently, with at most
// limit goroutines in flight, and returns the results in item order. A
// single item runs inline (no goroutine) so the uncontended path — one
// replica, one site — pays nothing for the machinery.
func fanEach[T, R any](limit int, items []T, f func(int, T) R) []R {
	out := make([]R, len(items))
	switch len(items) {
	case 0:
		return out
	case 1:
		out[0] = f(0, items[0])
		return out
	}
	if limit < 1 {
		limit = defaultFanoutLimit
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := range items {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			out[i] = f(i, items[i])
		}(i)
	}
	wg.Wait()
	return out
}

func (co *Coordinator) fanoutLimit() int {
	if co.cfg.FanoutLimit > 0 {
		return co.cfg.FanoutLimit
	}
	return defaultFanoutLimit
}

// round fans one request out to every target and collects the responses in
// target order, pipelined: every request is written before any response is
// read, so all replicas process the round concurrently and the round costs
// ~max(RTT_i) instead of sum(RTT_i). Pipelining rather than spawning a
// goroutine per target keeps the hot path allocation- and scheduler-free —
// on a single-core coordinator goroutines would serialize anyway, while
// the overlap here comes from the replicas, which is where the paper's
// cost model puts it. mk builds the request per target (returning one
// shared message for all targets is fine; sends are sequential and only
// read it). Every attempted send counts once toward msgsSent, success or
// not — the counting rule documented on Coordinator.msgsSent.
//
// Each conn is Reserved for the whole send→receive exchange: the §5.4.2
// join replay shares a transaction's per-worker conns, and without the
// claim its request/response pair could interleave with ours and the two
// exchanges would swap responses.
func (co *Coordinator) round(targets []fanTarget, mk func(fanTarget) *wire.Msg) []fanResult {
	start := time.Now()
	var mtype wire.Type
	out := make([]fanResult, len(targets))
	// Send phase: claim each connection, then pipeline the request onto it.
	for i, t := range targets {
		out[i] = fanResult{site: t.site, conn: t.conn}
		t.conn.Reserve()
		co.msgsSent.Inc()
		m := mk(t)
		mtype = m.Type
		out[i].err = t.conn.Send(m)
	}
	// Collect phase: responses arrive independently per connection; waiting
	// on target 0 while target 1's response sits buffered costs nothing.
	for i, t := range targets {
		if out[i].err == nil {
			if d := co.cfg.RoundTimeout; d > 0 {
				out[i].resp, out[i].err = t.conn.RecvTimeout(d)
			} else {
				out[i].resp, out[i].err = t.conn.Recv()
			}
		}
		t.conn.Release()
	}
	if len(targets) > 0 {
		co.reg.Histogram(obs.Name("coord.round.latency",
			"msg", mtype.String(), "proto", co.cfg.Protocol.String())).
			Observe(time.Since(start).Nanoseconds())
	}
	return out
}
