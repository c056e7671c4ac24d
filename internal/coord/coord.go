// Package coord implements the coordinator site of §4.1: it originates
// transactions, distributes update requests to every live replica, keeps
// the in-memory queue of logical update requests per transaction (required
// by recovery's join-pending protocol, §5.4.2), assigns commit timestamps
// through its timestamp authority, and drives all four commit protocols of
// §4.3. It also runs the recovery server of §6.1.7 on its listen port:
// recovering workers announce objects coming online, join pending
// transactions, and query transaction outcomes there.
package coord

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/retry"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wal"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// Config configures a coordinator.
type Config struct {
	Site     catalog.SiteID
	Dir      string // coordinator log directory (2PC protocols)
	Addr     string // recovery-server listen address
	Protocol txn.Protocol
	Catalog  *catalog.Catalog
	// GroupCommit enables group commit on the coordinator log.
	GroupCommit bool
	GroupDelay  time.Duration
	// SyncDelay simulates per-fsync disk latency (benchmarks).
	SyncDelay time.Duration
	// FanoutLimit bounds the goroutines of one concurrent network round
	// (update distribution, commit phases, distributed scans). 0 uses
	// defaultFanoutLimit.
	FanoutLimit int
	// RoundTimeout bounds each per-replica call of a fan-out round; a
	// replica that misses the deadline is treated as fail-stopped (§4.3.5:
	// the coordinator may "crash" a bottlenecking worker and proceed with
	// K-1 safety). It must exceed the workers' lock-wait bound: an update
	// may legally wait a full lock timeout at a healthy replica before it
	// answers, and evicting on that wait mistakes contention for a crash.
	// 0 waits forever.
	RoundTimeout time.Duration
	// LockTimeout is the workers' deadlock-detection window (informational
	// at the coordinator, but enforced against RoundTimeout: New rejects a
	// configuration with 0 < RoundTimeout <= LockTimeout, which would read
	// a healthy replica's legal lock wait as fail-stop). 0 skips the check.
	LockTimeout time.Duration
	// DialTimeout bounds each worker dial (threaded to every site pool).
	// 0 uses comm.DefaultDialTimeout.
	DialTimeout time.Duration
}

// outcomeRec is the coordinator's memory of a finished transaction.
type outcomeRec struct {
	committed bool
	ts        tuple.Timestamp
}

// queuedUpdate is one entry of the coordinator's in-memory update-request
// queue (§4.1): the logical request plus the sites it was sent to, so that
// the §5.4.2 join replay never double-applies an update that already
// reached the recovering site.
type queuedUpdate struct {
	msg    *wire.Msg
	sentTo map[catalog.SiteID]bool
}

// ctxn is the coordinator-side transaction record. The mutex guards the
// queue and worker set; it is never held across a network call on the
// update path, so the join-pending replay can proceed while an update is
// blocked behind a recovering site's Phase 3 table locks.
type ctxn struct {
	mu      sync.Mutex
	id      txn.ID
	workers map[catalog.SiteID]*comm.Conn
	queue   []*queuedUpdate
	done    bool
	// sealed is set (under mu) the moment Commit or Abort snapshots the
	// worker set for its outcome rounds. From then on the §5.4.2 join
	// replay must not add this transaction to a newly-online site: the
	// site would receive the updates but sit outside the already-taken
	// round snapshot, so no outcome would ever reach it and the txn would
	// dangle there forever. Skipping is safe — replay runs while the
	// recovering site still holds the buddy table read locks, and a
	// transaction that reached its outcome rounds has either not yet
	// touched the locked table (nothing to replay) or had its outcome
	// applied at the buddy before the lock was granted, in which case the
	// locked catch-up copy already carried its rows.
	sealed bool
}

// Coordinator is one coordinator site.
type Coordinator struct {
	cfg       Config
	plan      *txn.Plan // the protocol's phase plan; drives Txn.Commit
	Authority *Authority
	ids       *txn.IDSource
	log       *wal.Manager // nil unless the protocol logs at the coordinator

	server *comm.Server

	mu       sync.Mutex
	pools    map[catalog.SiteID]*comm.Pool
	txns     map[txn.ID]*ctxn
	outcomes map[txn.ID]outcomeRec
	// objectOnline[table][site]: whether the replica participates in new
	// updates. Cleared when a site is detected down; restored by the
	// §5.4.2 join protocol.
	objectOnline map[int32]map[catalog.SiteID]bool
	siteDown     map[catalog.SiteID]bool
	// finalSurvivor[table]: when every replica of a table has left the
	// update set (K-safety exceeded), the site whose departure completed
	// the outage. Commits to the table require a live replica, so none can
	// postdate that departure: the final survivor's local state is a
	// complete copy, and recovery is allowed to rejoin it from its own
	// data even though no online buddy exists. Cleared as soon as any
	// replica comes back online.
	finalSurvivor map[int32]catalog.SiteID

	// Routing epoch (segment rebalancing): every distributed read registers
	// the placement version its plan resolved against. A placement change
	// drains reads planned below the new version before answering, so the
	// donor can purge the moved range without yanking it out from under
	// in-flight plans. Guarded by scanMu, never co.mu (drain sleeps).
	scanMu      sync.Mutex
	activeScans map[int64]int64 // registration id -> plan placement version
	scanSeq     int64

	// readiness caches per-object recovery state probed from sites that are
	// out of the update set (MsgPing replies carry the per-object bitmap).
	// It powers objectReadableFor: a recovering site's Ready objects — and,
	// for historical reads, objects whose copied-through watermark already
	// covers the asOf — serve queries long before the site's full catch-up
	// completes. Guarded by readyMu, never co.mu (probes do network I/O).
	readyMu   sync.Mutex
	readiness map[catalog.SiteID]*siteReadiness

	// Observability: every coordinator owns a registry (coord.*, wal.*, and
	// per-site comm.* metrics) and a per-transaction tracer; cmds mount them
	// at /debug/harbor, benches snapshot them, and the chaos harness dumps
	// timelines from them on invariant failures.
	reg      *obs.Registry
	trace    *obs.Tracer
	msgsSent *obs.Counter   // coord.msgs_sent (counting rule on Counters)
	commits  *obs.Counter   // coord.commits
	aborts   *obs.Counter   // coord.aborts
	commitNS *obs.Histogram // coord.commit.latency.ns (successful commits)

	// Distributed-scan stream instrumentation.
	scanRows    *obs.Counter // coord.scan.rows — rows received from workers
	scanBatches *obs.Counter // coord.scan.batches — batch frames received
	slotsPruned *obs.Counter // coord.scan.slots_pruned — full-range slots a key predicate left unplanned

	// Pushed-down aggregation instrumentation.
	aggRowsShipped *obs.Counter // coord.agg.rows_shipped — partial states received
	aggFrames      *obs.Counter // coord.agg.frames — MsgAggBatch frames received
	aggQueries     *obs.Counter // coord.agg.queries — Aggregate calls served
	aggFailovers   *obs.Counter // coord.agg.failovers — slots replanned mid-query
}

// New starts a coordinator (and its recovery server).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	plan := cfg.Protocol.Plan()
	if plan == nil {
		return nil, fmt.Errorf("coord: protocol %v has no phase plan", cfg.Protocol)
	}
	if cfg.RoundTimeout > 0 && cfg.LockTimeout > 0 && cfg.RoundTimeout <= cfg.LockTimeout {
		return nil, fmt.Errorf(
			"coord: RoundTimeout (%v) must exceed LockTimeout (%v): an update may legally wait a full lock timeout at a healthy replica, and a round deadline inside that window mistakes contention for a crash (set either to 0 to disable its bound)",
			cfg.RoundTimeout, cfg.LockTimeout)
	}
	co := &Coordinator{
		cfg:           cfg,
		plan:          plan,
		Authority:     NewAuthority(),
		ids:           txn.NewIDSource(int32(cfg.Site)),
		pools:         map[catalog.SiteID]*comm.Pool{},
		txns:          map[txn.ID]*ctxn{},
		outcomes:      map[txn.ID]outcomeRec{},
		objectOnline:  map[int32]map[catalog.SiteID]bool{},
		siteDown:      map[catalog.SiteID]bool{},
		finalSurvivor: map[int32]catalog.SiteID{},
		activeScans:   map[int64]int64{},
		readiness:     map[catalog.SiteID]*siteReadiness{},
		reg:           obs.NewRegistry(),
		trace:         obs.NewTracer(),
	}
	co.msgsSent = co.reg.Counter("coord.msgs_sent")
	co.commits = co.reg.Counter("coord.commits")
	co.aborts = co.reg.Counter("coord.aborts")
	co.commitNS = co.reg.Histogram("coord.commit.latency.ns")
	co.scanRows = co.reg.Counter("coord.scan.rows")
	co.scanBatches = co.reg.Counter("coord.scan.batches")
	co.slotsPruned = co.reg.Counter("coord.scan.slots_pruned")
	co.aggRowsShipped = co.reg.Counter("coord.agg.rows_shipped")
	co.aggFrames = co.reg.Counter("coord.agg.frames")
	co.aggQueries = co.reg.Counter("coord.agg.queries")
	co.aggFailovers = co.reg.Counter("coord.agg.failovers")
	if plan.CoordLogs {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		log, err := wal.Open(cfg.Dir, cfg.GroupDelay)
		if err != nil {
			return nil, err
		}
		log.SetNoGroup(!cfg.GroupCommit)
		log.SetSyncDelay(cfg.SyncDelay)
		log.Instrument(co.reg)
		co.log = log
	}
	srv, err := comm.Listen(cfg.Addr, comm.HandlerFunc(co.serveConn))
	if err != nil {
		if co.log != nil {
			co.log.Close()
		}
		return nil, err
	}
	co.server = srv
	return co, nil
}

// Addr returns the recovery server's address.
func (co *Coordinator) Addr() string { return co.server.Addr() }

// Close shuts the coordinator down.
func (co *Coordinator) Close() error {
	err := co.server.Close()
	co.mu.Lock()
	pools := co.pools
	co.pools = map[catalog.SiteID]*comm.Pool{}
	co.mu.Unlock()
	for _, p := range pools {
		p.CloseAll()
	}
	if co.log != nil {
		co.log.Close()
	}
	return err
}

// Protocol returns the configured commit protocol.
func (co *Coordinator) Protocol() txn.Protocol { return co.cfg.Protocol }

// Obs returns the coordinator's metrics registry (coord.*, wal.*, comm.*).
func (co *Coordinator) Obs() *obs.Registry { return co.reg }

// Trace returns the coordinator's per-transaction tracer.
func (co *Coordinator) Trace() *obs.Tracer { return co.trace }

// Counters returns (messages sent to workers, commits, aborts).
//
// Counting rule: msgsSent increments exactly once per *attempted* request
// send to a worker — whether or not the send or its response succeeds —
// and never for streamed per-tuple responses flowing back. Every send path
// (fan-out rounds, scans, per-txn dials, the join replay) follows this
// rule, so the counter is comparable across protocols and failure modes.
func (co *Coordinator) Counters() (int64, int64, int64) {
	return co.msgsSent.Load(), co.commits.Load(), co.aborts.Load()
}

// ForcedWrites returns coordinator-log forced writes (0 when logless).
func (co *Coordinator) ForcedWrites() int64 {
	if co.log == nil {
		return 0
	}
	fc, _, _ := co.log.Counters()
	return fc
}

// ResetCounters zeroes evaluation counters. The coordinator log and the
// per-site comm pools share the registry, so their counters reset too.
func (co *Coordinator) ResetCounters() {
	co.reg.Reset()
}

// pool returns (creating) the connection pool for a site. A site that
// rebooted on a new address gets a fresh pool; stale idle connections to
// the old incarnation are discarded.
func (co *Coordinator) pool(site catalog.SiteID) (*comm.Pool, error) {
	addr, ok := co.cfg.Catalog.SiteAddr(site)
	if !ok {
		return nil, fmt.Errorf("coord: unknown site %d", site)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if p, ok := co.pools[site]; ok && p.Addr() == addr {
		return p, nil
	} else if ok {
		go p.CloseAll()
	}
	p := comm.NewPool(addr)
	p.SetDialTimeout(co.cfg.DialTimeout)
	p.Instrument(co.reg, strconv.Itoa(int(site)))
	co.pools[site] = p
	return p, nil
}

// borrowBackoff paces the fresh-dial retry below. The base is tiny — the
// stale-conn case it guards is common and benign — but a jittered pause
// still keeps a flapping site from being redialed in a tight loop by many
// concurrent borrowers at once.
var borrowBackoff = &retry.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond}

// borrow takes a connection from p and runs the first exchange on it via
// do. A transport error on the first exchange of a pooled (reused)
// connection usually means the conn went stale while idle — the peer
// restarted or closed it since Put — not that the site is down, so borrow
// retries exactly once on a fresh dial (after a short jittered backoff)
// before reporting failure. Errors on a fresh conn (or on the retry)
// propagate: those are real site failures. On success the returned conn
// has completed do; on error no conn is returned and any borrowed conns
// are closed.
func (co *Coordinator) borrow(p *comm.Pool, do func(*comm.Conn) error) (*comm.Conn, error) {
	conn, err := p.Get()
	if err != nil {
		return nil, err
	}
	err = do(conn)
	if err == nil {
		return conn, nil
	}
	if !conn.Reused() {
		conn.Close()
		return nil, err
	}
	conn.Close()
	borrowBackoff.Sleep(0)
	conn, err = p.Fresh()
	if err != nil {
		return nil, err
	}
	if err := do(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// MarkDown records a site failure (connection-drop detection, §5.5). All
// its replicas leave the update set until they rejoin.
func (co *Coordinator) MarkDown(site catalog.SiteID) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.siteDown[site] {
		return
	}
	co.siteDown[site] = true
	for _, r := range co.cfg.Catalog.ReplicasOn(site) {
		m := co.objectOnline[r.Table]
		if m == nil {
			m = map[catalog.SiteID]bool{}
			co.objectOnline[r.Table] = m
		}
		m[site] = false
		// If this departure took the table's last replica offline, remember
		// the site: it alone holds every commit (see finalSurvivor).
		anyOnline := false
		for _, o := range co.cfg.Catalog.Replicas(r.Table) {
			if o.Site != site && co.objectIsOnlineLocked(r.Table, o.Site) {
				anyOnline = true
				break
			}
		}
		if !anyOnline {
			co.finalSurvivor[r.Table] = site
		}
	}
	// Idle connections to the dead incarnation are useless.
	if p, ok := co.pools[site]; ok {
		delete(co.pools, site)
		go p.CloseAll()
	}
}

// EvictWorker deliberately fail-stops a worker that is bottlenecking
// pending transactions (§4.3.5's corollary: "a coordinator can also 'crash'
// a worker site that is bottlenecking a particular pending transaction due
// to network lag, deadlock, or some other reason and proceed to commit the
// transaction with K-1-safety"). The evicted worker must run recovery to
// come back. The caller is responsible for not evicting below 1 live
// replica per table (the coordinator refuses if any table would lose its
// last online replica).
func (co *Coordinator) EvictWorker(site catalog.SiteID) error {
	// Refuse to destroy the last copy of anything.
	for _, r := range co.cfg.Catalog.ReplicasOn(site) {
		others := 0
		for _, o := range co.cfg.Catalog.Replicas(r.Table) {
			if o.Site != site && co.objectIsOnline(r.Table, o.Site) {
				others++
			}
		}
		if others == 0 {
			return fmt.Errorf("coord: evicting site %d would take table %d fully offline", site, r.Table)
		}
	}
	addr, ok := co.cfg.Catalog.SiteAddr(site)
	if ok {
		if c, err := comm.Dial(addr); err == nil {
			_, _ = c.Call(&wire.Msg{Type: wire.MsgCrash})
			c.Close()
		}
	}
	co.MarkDown(site)
	return nil
}

// SiteDown reports the failure-detector state for a site.
func (co *Coordinator) SiteDown(site catalog.SiteID) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.siteDown[site]
}

// objectIsOnline reports whether a replica participates in updates.
func (co *Coordinator) objectIsOnline(table int32, site catalog.SiteID) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.objectIsOnlineLocked(table, site)
}

func (co *Coordinator) objectIsOnlineLocked(table int32, site catalog.SiteID) bool {
	if m, ok := co.objectOnline[table]; ok {
		if v, ok := m[site]; ok {
			return v
		}
	}
	return !co.siteDown[site]
}

// objectFinalSurvivor reports whether site is the table's final survivor
// (last replica out of the update set while the table is fully offline).
func (co *Coordinator) objectFinalSurvivor(table int32, site catalog.SiteID) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	s, ok := co.finalSurvivor[table]
	return ok && s == site
}

// markObjectOnline restores a replica to the update set.
func (co *Coordinator) markObjectOnline(table int32, site catalog.SiteID) {
	co.mu.Lock()
	defer co.mu.Unlock()
	m := co.objectOnline[table]
	if m == nil {
		m = map[catalog.SiteID]bool{}
		co.objectOnline[table] = m
	}
	m[site] = true
	// The site itself is reachable again once any object announces, and
	// the table is no longer fully offline.
	co.siteDown[site] = false
	delete(co.finalSurvivor, table)
}

// siteReadiness is one cached per-object readiness probe of a site. objs
// holds one entry per segment of each object, sorted by range Lo (the order
// the worker's readiness list reports them).
type siteReadiness struct {
	at      time.Time
	live    bool
	ready   bool // aggregate all-objects-Ready bit
	objs    map[int32][]wire.ObjReady
	probing bool
}

const (
	// readinessTTL bounds probe traffic to a recovering site: continuous
	// queries share one probe per window instead of pinging per read.
	readinessTTL = 100 * time.Millisecond
	// readinessProbeTimeout keeps a dead site's dial from stalling read
	// planning: a site that cannot answer a ping this fast cannot serve
	// the read either.
	readinessProbeTimeout = 150 * time.Millisecond
)

// siteObjReadiness returns the (possibly cached) per-object readiness of a
// site. Probes are single-flight: while one caller refreshes, concurrent
// callers use the stale entry rather than piling dials onto the site.
func (co *Coordinator) siteObjReadiness(site catalog.SiteID) *siteReadiness {
	co.readyMu.Lock()
	r := co.readiness[site]
	if r == nil {
		r = &siteReadiness{}
		co.readiness[site] = r
	}
	if r.probing || time.Since(r.at) < readinessTTL {
		co.readyMu.Unlock()
		return r
	}
	r.probing = true
	co.readyMu.Unlock()

	var live, ready bool
	var objs []wire.ObjReady
	if addr, ok := co.cfg.Catalog.SiteAddr(site); ok {
		live, ready, objs = comm.PingObjects(addr, readinessProbeTimeout)
	}
	m := make(map[int32][]wire.ObjReady, len(objs))
	for _, o := range objs {
		m[o.Table] = append(m[o.Table], o)
	}
	nr := &siteReadiness{at: time.Now(), live: live, ready: ready, objs: m}
	co.readyMu.Lock()
	co.readiness[site] = nr
	co.readyMu.Unlock()
	return nr
}

// objectReadableFor reports whether a replica can serve a read. An online
// replica always can. A replica on a site that left the update set can still
// serve once its own recovery state says so: Ready objects serve anything,
// and an object mid historical-copy or catch-up serves a historical read
// asOf A the moment its copied-through watermark reaches A (the copied
// prefix is byte-identical to a healthy replica's view at A — later-window
// arrivals carry insertion stamps above A and deletions only gain stamps
// above A, so both are invisible to the read). This is what splits MTTR:
// time-to-first-query is when the first object covers the asOf, not when
// the whole site finishes catch-up.
func (co *Coordinator) objectReadableFor(table int32, site catalog.SiteID, historical bool, asOf tuple.Timestamp) bool {
	if co.objectIsOnline(table, site) {
		return true
	}
	r := co.siteObjReadiness(site)
	if !r.live {
		return false
	}
	segs, ok := r.objs[table]
	if !ok {
		// Pre-bitmap worker: fall back to the aggregate ready bit.
		return r.ready
	}
	for _, o := range segs {
		if !segmentServable(o, historical, asOf) {
			return false
		}
	}
	return true
}

// segmentServable reports whether one advertised segment state can serve a
// read. Ready serves anything. A recovering segment serves a historical
// read asOf A once its copied-through watermark reaches A; a segment in
// locked catch-up whose drained horizon reaches the read's start timestamp
// additionally serves current reads (the buddy table locks freeze commits,
// so the drained contents equal a healthy replica's).
func segmentServable(o wire.ObjReady, historical bool, asOf tuple.Timestamp) bool {
	st := worker.ObjState(o.State)
	if st == worker.ObjReady {
		return true
	}
	if asOf == 0 || tuple.Timestamp(o.CopiedThrough) < asOf {
		return false
	}
	if historical {
		return st == worker.ObjHistoricalCopy || st == worker.ObjCatchup
	}
	return st == worker.ObjCatchup
}

// readCandidates assembles the servable key-range candidates for planning a
// read of table: an online replica offers its whole catalog range, a
// replica on a recovering site offers exactly the segments whose advertised
// recovery state can serve this read. CoverTarget then composes a scan from
// Ready segments on the recovering site and healthy buddies for the rest —
// the routing half of segment-granular recovery.
func (co *Coordinator) readCandidates(table int32, historical bool, asOf tuple.Timestamp) []catalog.RangeCandidate {
	var cands []catalog.RangeCandidate
	for _, rep := range co.cfg.Catalog.Replicas(table) {
		if co.objectIsOnline(table, rep.Site) {
			cands = append(cands, catalog.RangeCandidate{Site: rep.Site, Table: rep.Table, Range: rep.Range})
			continue
		}
		r := co.siteObjReadiness(rep.Site)
		if !r.live {
			continue
		}
		segs, ok := r.objs[table]
		if !ok {
			if r.ready {
				cands = append(cands, catalog.RangeCandidate{Site: rep.Site, Table: rep.Table, Range: rep.Range})
			}
			continue
		}
		for _, o := range segs {
			if !segmentServable(o, historical, asOf) {
				continue
			}
			rng := expr.KeyRange{Lo: o.Lo, Hi: o.Hi}.Intersect(rep.Range)
			if rng.Empty() {
				continue
			}
			cands = append(cands, catalog.RangeCandidate{Site: rep.Site, Table: rep.Table, Range: rng})
		}
	}
	return cands
}

// registerScan enters a distributed read into the active-scan registry with
// the placement version its plan resolves against. Register before reading
// the catalog: any placement change that lands after registration carries a
// higher version and therefore drains on this read.
func (co *Coordinator) registerScan(planVer int64) int64 {
	co.scanMu.Lock()
	defer co.scanMu.Unlock()
	co.scanSeq++
	id := co.scanSeq
	co.activeScans[id] = planVer
	return id
}

// deregisterScan removes a finished read from the registry.
func (co *Coordinator) deregisterScan(id int64) {
	co.scanMu.Lock()
	delete(co.activeScans, id)
	co.scanMu.Unlock()
}

// drainTimeout bounds how long a placement change waits for reads planned
// against the previous placement. The drain is fail-open: correctness never
// depends on it — a scan that outlives the drain and reaches a purged range
// is refused with a placement-stale error and replans against the live
// catalog — draining just makes that refusal path rare.
const drainTimeout = 2 * time.Second

// drainBelow blocks until no active read was planned below ver, or timeout.
func (co *Coordinator) drainBelow(ver int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		stale := false
		co.scanMu.Lock()
		for _, v := range co.activeScans {
			if v < ver {
				stale = true
				break
			}
		}
		co.scanMu.Unlock()
		if !stale || time.Now().After(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Outcome returns the recorded outcome of a transaction. ok=false means the
// coordinator has no information (the caller applies presumed abort, §4.3).
func (co *Coordinator) Outcome(id txn.ID) (committed bool, ts tuple.Timestamp, ok bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	o, found := co.outcomes[id]
	if !found {
		return false, 0, false
	}
	return o.committed, o.ts, true
}

// RecordOutcomeForTest injects a transaction outcome, letting tests stage
// "the coordinator reached its commit point and then died" scenarios.
func (co *Coordinator) RecordOutcomeForTest(id txn.ID, committed bool, ts tuple.Timestamp) {
	co.recordOutcome(id, committed, ts)
}

func (co *Coordinator) recordOutcome(id txn.ID, committed bool, ts tuple.Timestamp) {
	co.mu.Lock()
	co.outcomes[id] = outcomeRec{committed: committed, ts: ts}
	co.mu.Unlock()
}

// serveConn handles the coordinator's server: recovery announcements,
// outcome queries, and time queries.
func (co *Coordinator) serveConn(c *comm.Conn) {
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		var resp *wire.Msg
		switch m.Type {
		case wire.MsgPing:
			resp = &wire.Msg{Type: wire.MsgOK}
		case wire.MsgCurrentTime:
			resp = &wire.Msg{Type: wire.MsgOK, TS: co.Authority.HWM()}
		case wire.MsgTxnOutcome:
			committed, ts, ok := co.Outcome(m.Txn)
			resp = &wire.Msg{Type: wire.MsgTxnState, TS: ts}
			if ok {
				resp.Flags = wire.FlagKnown
				if committed {
					resp.Flags |= wire.FlagYes
				}
			}
		case wire.MsgObjectStatus:
			resp = &wire.Msg{Type: wire.MsgOK}
			if co.objectIsOnline(m.Table, catalog.SiteID(m.Site)) {
				resp.Flags = wire.FlagYes
			}
			if co.objectFinalSurvivor(m.Table, catalog.SiteID(m.Site)) {
				resp.Flags |= wire.FlagSurvivor
			}
		case wire.MsgJoinSite:
			// Online node join, step 1: register the cold site's address and
			// hand back an advisory assignment (currently the full key range
			// of every table — partial initial assignment is a planner
			// refinement, see ROADMAP). The joiner streams each assignment in
			// via core.Migrate, whose horizon flip lands as MsgPlacementChange.
			co.cfg.Catalog.AddSite(catalog.SiteID(m.Site), m.Text)
			var objs []wire.ObjReady
			full := expr.FullKeyRange()
			for _, tb := range co.cfg.Catalog.Tables() {
				objs = append(objs, wire.ObjReady{Table: tb, Lo: full.Lo, Hi: full.Hi})
			}
			resp = &wire.Msg{Type: wire.MsgOK,
				TS: tuple.Timestamp(co.cfg.Catalog.PlacementVersion()), Objs: objs}
		case wire.MsgPlacementChange:
			rep := catalog.Replica{Site: catalog.SiteID(m.Site), Table: m.Table,
				Range: expr.KeyRange{Lo: m.KeyLo, Hi: m.KeyHi}, SegPages: m.SegPages}
			var ver int64
			var err error
			if m.Yes() {
				ver, err = co.cfg.Catalog.AddReplicaRange(rep)
			} else {
				ver, err = co.cfg.Catalog.RemoveReplicaRange(rep.Site, rep.Table, rep.Range)
			}
			if err != nil {
				resp = &wire.Msg{Type: wire.MsgErr, Text: err.Error()}
			} else {
				// Reads planned against the old placement finish before the
				// caller proceeds (to purge a donor range, for a remove).
				co.drainBelow(ver, drainTimeout)
				resp = &wire.Msg{Type: wire.MsgOK, TS: tuple.Timestamp(ver)}
			}
		case wire.MsgObjectOnline:
			if err := co.handleObjectOnline(catalog.SiteID(m.Site), m.Table); err != nil {
				resp = &wire.Msg{Type: wire.MsgErr, Text: err.Error()}
			} else {
				resp = &wire.Msg{Type: wire.MsgAllDone}
			}
		default:
			resp = &wire.Msg{Type: wire.MsgErr, Text: fmt.Sprintf("coord: unexpected %v", m.Type)}
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// handleObjectOnline implements the coordinator side of Figure 5-4's
// join-pending protocol: mark the replica online so all subsequent updates
// include it, replay each pending transaction's queued updates that touch
// the object, and answer "all done". Distinct pending transactions replay
// concurrently (each on its own dedicated connection to the recovering
// site); within one transaction the queued updates stay strictly ordered.
func (co *Coordinator) handleObjectOnline(site catalog.SiteID, table int32) error {
	// Flag first under the lock (so no new update can miss the site), then
	// snapshot pending transactions.
	co.markObjectOnline(table, site)
	co.mu.Lock()
	pending := make([]*ctxn, 0, len(co.txns))
	for _, t := range co.txns {
		pending = append(pending, t)
	}
	co.mu.Unlock()

	fanEach(co.fanoutLimit(), pending, func(_ int, t *ctxn) struct{} {
		co.replayQueueTo(t, site, table)
		return struct{}{}
	})
	return nil
}

// replayQueueTo sends one pending transaction's queued updates for the
// recovering table to the newly-online site (§5.4.2). Holding t.mu for the
// replay keeps the per-site request order intact: later distributes to this
// transaction wait here and therefore send to the new site only after the
// queue replay finished. The site's conn may already be claimed by an
// in-flight fan-out round (rounds run with t.mu released), so each replay
// Call holds the conn's Reserve claim — blocking until the round's own
// exchange on that conn completes — rather than racing its Recv. That
// cannot deadlock: a round never takes t.mu while holding claims.
func (co *Coordinator) replayQueueTo(t *ctxn, site catalog.SiteID, table int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.sealed {
		return
	}
	// Relevant if any queued update touches the recovering table, did not
	// already reach the recovering site, and falls inside a range the site
	// actually replicates (a partial replica must not receive keys outside
	// its segments; with full replication the filter is a no-op).
	var replay []*queuedUpdate
	for _, q := range t.queue {
		if q.msg.Table != table || q.sentTo[site] {
			continue
		}
		if key, ok := co.updateKey(q.msg); ok && !co.siteCoversKey(site, table, key) {
			continue
		}
		replay = append(replay, q)
	}
	if len(replay) == 0 {
		return
	}
	if _, ok := t.workers[site]; !ok {
		if _, err := co.dialWorkerForTxn(t, site); err != nil {
			return // site died again; it will re-run recovery (§5.5.1)
		}
	}
	conn := t.workers[site]
	for _, q := range replay {
		conn.Reserve()
		resp, err := conn.Call(q.msg)
		conn.Release()
		co.msgsSent.Inc()
		if err == nil {
			err = resp.Err()
		}
		if err != nil {
			delete(t.workers, site)
			conn.Close()
			return
		}
		q.sentTo[site] = true
	}
}

// updateKey extracts the routing key of a queued logical update. ok=false
// means the message type carries no key (replay it unconditionally).
func (co *Coordinator) updateKey(m *wire.Msg) (int64, bool) {
	switch m.Type {
	case wire.MsgInsert:
		spec, ok := co.cfg.Catalog.Table(m.Table)
		if !ok {
			return 0, false
		}
		return wire.ToTuple(m.Tuple).Key(spec.Desc), true
	case wire.MsgDeleteKey, wire.MsgUpdateKey:
		return m.Key, true
	}
	return 0, false
}

// siteCoversKey reports whether any replica of table on site contains key.
func (co *Coordinator) siteCoversKey(site catalog.SiteID, table int32, key int64) bool {
	for _, rep := range co.cfg.Catalog.Replicas(table) {
		if rep.Site == site && rep.Range.Contains(key) {
			return true
		}
	}
	return false
}

// dialWorkerForTxn opens a dedicated connection to a worker for one
// transaction and sends BEGIN. Caller holds t.mu.
func (co *Coordinator) dialWorkerForTxn(t *ctxn, site catalog.SiteID) (*comm.Conn, error) {
	p, err := co.pool(site)
	if err != nil {
		return nil, err
	}
	var resp *wire.Msg
	conn, err := co.borrow(p, func(c *comm.Conn) error {
		r, err := c.Call(&wire.Msg{Type: wire.MsgBegin, Txn: t.id})
		co.msgsSent.Inc()
		resp = r
		return err
	})
	if err != nil {
		co.MarkDown(site)
		return nil, err
	}
	if resp.Type != wire.MsgOK {
		conn.Close()
		return nil, fmt.Errorf("coord: begin rejected: %v", resp.Text)
	}
	t.workers[site] = conn
	return conn, nil
}
