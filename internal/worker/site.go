// Package worker implements a worker site: the full single-site stack of
// Figure 6-1 (storage, buffer pool, lock manager, versioning layer, optional
// WAL) behind the multi-threaded TCP server of §6.1.6, with the worker side
// of all four commit protocols, the Figure 3-2 checkpointer, fail-stop crash
// simulation, and the worker-side pieces of the §4.3.3 consensus building
// protocol.
package worker

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"harbor/internal/aries"
	"harbor/internal/buffer"
	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/expr"
	"harbor/internal/lockmgr"
	"harbor/internal/obs"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/version"
	"harbor/internal/vfs"
	"harbor/internal/wal"
	"harbor/internal/wire"
)

// RecoveryMode selects the crash-recovery mechanism (§6.1: "the
// implementation supports two independent recovery mechanisms — HARBOR and
// the traditional log-based ARIES approach").
type RecoveryMode uint8

const (
	// HARBOR recovers from remote replicas (Chapter 5); no WAL exists.
	HARBOR RecoveryMode = iota + 1
	// ARIES recovers from the local write-ahead log.
	ARIES
)

// String renders the mode.
func (m RecoveryMode) String() string {
	if m == HARBOR {
		return "HARBOR"
	}
	return "ARIES"
}

// Config configures a worker site.
type Config struct {
	Site     catalog.SiteID
	Dir      string
	Addr     string // listen address; "127.0.0.1:0" for ephemeral
	Protocol txn.Protocol
	Mode     RecoveryMode

	PoolFrames      int           // buffer pool capacity (default 2048)
	LockTimeout     time.Duration // deadlock timeout (default 2s)
	CheckpointEvery time.Duration // 0 disables the background checkpointer
	GroupCommit     bool          // enable group commit batching (§6.2)
	GroupDelay      time.Duration // optional group-commit delay timer
	SyncDelay       time.Duration // simulated per-fsync disk latency (benchmarks)

	// Catalog gives the cluster layout (addresses for consensus and
	// coordinator-outcome queries).
	Catalog *catalog.Catalog
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.PoolFrames == 0 {
		out.PoolFrames = 2048
	}
	if out.LockTimeout == 0 {
		out.LockTimeout = 2 * time.Second
	}
	if out.Addr == "" {
		out.Addr = "127.0.0.1:0"
	}
	return out
}

// workerLogs reports whether this configuration keeps a WAL: a protocol
// whose phase plan has worker force points needs one, and ARIES recovery
// requires one regardless of protocol.
func (c *Config) workerLogs() bool {
	pl := c.Protocol.Plan()
	return (pl != nil && pl.WorkerForces()) || c.Mode == ARIES
}

// wtxn is the worker-side distributed transaction record (Figure 4-5).
type wtxn struct {
	id           txn.ID
	state        txn.State
	commitTS     tuple.Timestamp
	participants []int32 // 3PC worker set
	didWrite     bool
	// barrier is the appliedTS recorded when the transaction prepared; the
	// checkpointer must not advance past it until the commit time is known
	// (see tsTracker).
	barrier tuple.Timestamp
}

// Site is one worker process.
type Site struct {
	Cfg   Config
	plan  *txn.Plan // the protocol's phase plan; drives handler force points
	Mgr   *storage.Manager
	Log   *wal.Manager // nil when the configuration is logless
	Locks *lockmgr.Manager
	Pool  *buffer.Pool
	Store *version.Store

	server *comm.Server

	mu    sync.Mutex
	txns  map[txn.ID]*wtxn
	conds map[txn.ID]*sync.Cond // waiters for terminal state (consensus)

	ts tsTracker

	crashed   atomic.Bool
	ckptStop  chan struct{}
	ckptPause atomic.Int32
	wg        sync.WaitGroup

	// Per-object recovery state (see objstate.go). When Open finds prior
	// state without the clean-shutdown marker, the previous incarnation
	// fail-stopped: every object seeds NeedsRecovery, and until recovery
	// brings an object to Ready it refuses reads (except covered historical
	// reads) and recovery scans — seeding another site's catch-up from a
	// demoted object would silently lose committed data. startedDirty
	// records which incarnation this is, for objects not yet in the table.
	objMu        sync.Mutex
	objs         map[int32]objStatus
	startedDirty bool
	// objPersistMu serializes writes of the advisory recovery_state file,
	// which happen outside objMu so state transitions (two fsyncs each)
	// never stall the per-scan ObjectState lookups.
	objPersistMu sync.Mutex

	// On-demand fault-in (see objstate.go): the recovery driver's promote
	// hook and the per-table dedup set.
	faultMu     sync.Mutex
	faultInHook func(table int32, rng expr.KeyRange)
	faultBusy   map[int32]bool
	// pendingFaults buffers fault-in ranges recorded while no hook is
	// attached; replayed (and cleared) at the next SetFaultInHook so the
	// driver sees pre-attach read pressure.
	pendingFaults map[int32][]expr.KeyRange

	// failNextPrepare makes the next PREPARE vote NO (abort-path tests).
	failNextPrepare atomic.Bool

	// Online torn-page repair (see repair.go): the installed hook and the
	// set of tables with a repair already in flight.
	repairMu   sync.Mutex
	repairHook func(table int32) error
	repairBusy map[int32]bool

	// Purged key ranges (see purge.go): ranges this incarnation physically
	// deleted after a segment moved away. Scans declaring an intersecting
	// range were planned against placement from before the move and are
	// refused with a placement-stale error so the coordinator replans.
	purgeMu sync.Mutex
	purged  map[int32][]expr.KeyRange

	// msgDelay (ns) stalls every received request before dispatch —
	// simulated network/processing latency in the spirit of §6.3.2's
	// simulated work, used to prove coordinator rounds run at
	// max-of-replicas rather than sum-of-replicas latency.
	msgDelay atomic.Int64

	// Observability: every site owns a registry (worker.*, wal.*, buffer.*,
	// lockmgr.*, storage.* metrics) and a per-transaction tracer; the cmd
	// mounts them at /debug/harbor and the chaos harness dumps timelines
	// from them on invariant failures.
	reg     *obs.Registry
	trace   *obs.Tracer
	commits *obs.Counter // worker.commits
	aborts  *obs.Counter // worker.aborts

	// Batched-stream instrumentation (scan and recovery-scan serving).
	scanRows   *obs.Counter   // worker.scan.rows — rows streamed out
	scanFrames *obs.Counter   // worker.scan.frames — MsgTupleBatch frames sent
	scanBytes  *obs.Counter   // worker.scan.bytes — frame payload bytes sent
	batchFill  *obs.Histogram // worker.scan.batch_fill — rows per frame

	// Pushed-down aggregation instrumentation.
	aggGroups *obs.Counter // worker.agg.groups — partial group states shipped
	aggRowsIn *obs.Counter // worker.agg.rows_in — rows folded into partials
	aggFrames *obs.Counter // worker.agg.frames — MsgAggBatch frames sent
}

// cleanShutdownFile marks a site directory as closed via Close(): the final
// checkpoint ran and nothing acknowledged is volatile-only. Open consumes
// the marker; a directory with prior state but no marker belonged to a
// crashed incarnation, and the new site starts in needs-recovery state.
const cleanShutdownFile = "clean_shutdown"

// Open builds the site stack from its directory (creating it if needed) and
// starts the TCP server. In ARIES mode with existing state, the caller is
// responsible for running Recover (the benches time it separately).
func Open(cfg Config) (*Site, error) {
	cfg = cfg.withDefaults()
	plan := cfg.Protocol.Plan()
	if plan == nil {
		return nil, fmt.Errorf("worker: protocol %v has no phase plan", cfg.Protocol)
	}
	if err := vfs.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	// Consume the clean-shutdown marker before anything else: removing it
	// durably (dir fsync) means a crash from here on is detected as such by
	// the next incarnation.
	marker := filepath.Join(cfg.Dir, cleanShutdownFile)
	_, merr := vfs.Stat(marker)
	cleanPrior := merr == nil
	if cleanPrior {
		if err := vfs.Remove(marker); err != nil {
			return nil, err
		}
		if err := vfs.SyncDir(cfg.Dir); err != nil {
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	mgr, err := storage.NewManager(cfg.Dir)
	if err != nil {
		return nil, err
	}
	mgr.Instrument(reg)
	var log *wal.Manager
	if cfg.workerLogs() {
		log, err = wal.Open(cfg.Dir, cfg.GroupDelay)
		if err != nil {
			mgr.Close()
			return nil, err
		}
		log.SetNoGroup(!cfg.GroupCommit)
		log.SetSyncDelay(cfg.SyncDelay)
		log.Instrument(reg)
	}
	locks := lockmgr.New(cfg.LockTimeout)
	locks.Instrument(reg)
	pool := buffer.New(&version.PageStore{Mgr: mgr, Log: log}, locks, cfg.PoolFrames, buffer.StealNoForce)
	pool.Instrument(reg)
	store := version.NewStore(mgr, pool, locks, log)
	store.Instrument(reg)
	s := &Site{
		Cfg:   cfg,
		plan:  plan,
		Mgr:   mgr,
		Log:   log,
		Locks: locks,
		Pool:  pool,
		Store: store,
		txns:  map[txn.ID]*wtxn{},
		conds: map[txn.ID]*sync.Cond{},
		reg:   reg,
		trace: obs.NewTracer(),
	}
	s.commits = reg.Counter("worker.commits")
	s.aborts = reg.Counter("worker.aborts")
	s.scanRows = reg.Counter("worker.scan.rows")
	s.scanFrames = reg.Counter("worker.scan.frames")
	s.scanBytes = reg.Counter("worker.scan.bytes")
	s.batchFill = reg.Histogram("worker.scan.batch_fill")
	s.aggGroups = reg.Counter("worker.agg.groups")
	s.aggRowsIn = reg.Counter("worker.agg.rows_in")
	s.aggFrames = reg.Counter("worker.agg.frames")
	s.ts.init()
	ids := mgr.IDs()
	s.seedObjectStates(!cleanPrior && len(ids) > 0, ids)
	// Replicas the catalog assigned to this site while it was down (node
	// join or rebalance targeting a dead site) have no local table at all:
	// the clean-shutdown marker says nothing about them, and without an
	// entry in the state table reads on a cleanly-restarted site would
	// default to Ready and serve an empty table. Seed them NeedsRecovery so
	// they refuse reads, fault in, and are visible to RecoverSite.
	if cfg.Catalog != nil {
		known := make(map[int32]bool, len(ids))
		for _, id := range ids {
			known[id] = true
		}
		for _, rep := range cfg.Catalog.ReplicasOn(cfg.Site) {
			if !known[rep.Table] {
				s.CarveSegmentState(rep.Table, expr.FullKeyRange(), ObjNeedsRecovery, 0)
				known[rep.Table] = true
			}
		}
	}
	srv, err := comm.Listen(cfg.Addr, comm.HandlerFunc(s.serveConn))
	if err != nil {
		mgr.Close()
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	s.server = srv
	if cfg.CheckpointEvery > 0 {
		s.ckptStop = make(chan struct{})
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// Addr returns the server's listen address.
func (s *Site) Addr() string { return s.server.Addr() }

// CreateTable creates a local replica of a table. The new object seeds
// Ready regardless of which incarnation creates it: a table created NOW
// cannot predate the crash, so it is trivially complete (empty). The
// recovery driver demotes the objects it actually needs to repopulate
// (missing replicas it just created included) explicitly — seeding
// NeedsRecovery here only wedged tables created mid-recovery by ordinary
// DDL, which no driver ever promoted.
func (s *Site) CreateTable(id int32, desc *tuple.Desc, segPages int32) error {
	if _, err := s.Mgr.Create(id, desc, segPages); err != nil {
		return err
	}
	s.objMu.Lock()
	var data []byte
	if _, ok := s.objs[id]; !ok {
		if s.objs == nil {
			s.objs = map[int32]objStatus{}
		}
		s.objs[id] = objStatus{segs: []segStatus{fullSeg(ObjReady, 0)}}
		data = s.renderObjStatesLocked()
	}
	s.objMu.Unlock()
	if data != nil {
		s.writeObjStates(data)
	}
	return nil
}

// Crash fail-stops the site: the server and every connection close abruptly,
// volatile state (buffer pool, lock table, transaction state) is dropped
// without flushing, and files are left exactly as they are (§3.2 fail-stop).
func (s *Site) Crash() {
	if !s.crashed.CompareAndSwap(false, true) {
		return
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
	}
	s.server.Close()
	s.Pool.DiscardAll()
	s.mu.Lock()
	s.txns = map[txn.ID]*wtxn{}
	s.mu.Unlock()
	s.Mgr.Close()
	if s.Log != nil {
		s.Log.Close()
	}
	s.wg.Wait()
}

// Close shuts the site down cleanly (flushing a final checkpoint), then
// leaves the clean-shutdown marker so the next incarnation knows it is not
// rejoining from a crash.
func (s *Site) Close() error {
	if s.crashed.Load() {
		return nil
	}
	if s.Cfg.Mode == HARBOR {
		_ = s.CheckpointNow()
	}
	if err := vfs.WriteFileAtomic(filepath.Join(s.Cfg.Dir, cleanShutdownFile), []byte("clean\n"), 0o644); err != nil {
		s.Crash()
		return err
	}
	s.Crash()
	return nil
}

// Crashed reports whether the site has fail-stopped.
func (s *Site) Crashed() bool { return s.crashed.Load() }

// SetCrashedForTest overrides the crashed flag without tearing anything
// down. Production code never clears the flag (a crashed Site is replaced
// by a new incarnation), so tests that need to observe behavior across a
// crash-then-recover transition on ONE incarnation — e.g. that a background
// scrubber skips ticks while crashed and resumes after — use this instead.
func (s *Site) SetCrashedForTest(v bool) { s.crashed.Store(v) }

// FailNextPrepare arms the abort-path test hook: the next PREPARE received
// votes NO (simulating a consistency-constraint violation, §4.3).
func (s *Site) FailNextPrepare() { s.failNextPrepare.Store(true) }

// SetSimMsgDelay makes the site sleep d before dispatching each received
// request (0 disables), simulating a slow replica or laggy link.
func (s *Site) SetSimMsgDelay(d time.Duration) { s.msgDelay.Store(int64(d)) }

// Obs returns the site's metrics registry (worker.*, wal.*, buffer.*,
// lockmgr.*, storage.*).
func (s *Site) Obs() *obs.Registry { return s.reg }

// Trace returns the site's per-transaction tracer.
func (s *Site) Trace() *obs.Tracer { return s.trace }

// --- checkpointing -------------------------------------------------------

func (s *Site) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.Cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			if s.ckptPause.Load() > 0 {
				continue
			}
			_ = s.CheckpointNow()
		}
	}
}

// PauseCheckpoints disables the periodic checkpointer (HARBOR disables
// scheduled checkpoints during recovery, §5.2). Resume re-enables it.
func (s *Site) PauseCheckpoints() { s.ckptPause.Add(1) }

// ResumeCheckpoints re-enables the periodic checkpointer.
func (s *Site) ResumeCheckpoints() { s.ckptPause.Add(-1) }

// CheckpointNow runs one checkpoint. In HARBOR mode this is the Figure 3-2
// algorithm: pick a safe time T, snapshot the dirty-pages table, flush each
// page under its latch, sync, then durably record T. In ARIES mode it is a
// fuzzy log checkpoint.
func (s *Site) CheckpointNow() error {
	if s.crashed.Load() {
		return comm.ErrCrashed
	}
	if s.Cfg.Mode == ARIES {
		var active []wal.TxnStatus
		s.mu.Lock()
		for id, w := range s.txns {
			if w.state.Terminal() {
				continue
			}
			st := wal.TxnActive
			switch w.state {
			case txn.StatePreparedYes, txn.StatePreparedToCommit:
				st = wal.TxnPrepared
			}
			var lastLSN uint64
			if vt := s.Store.Get(lockmgr.TxnID(id)); vt != nil {
				lastLSN = vt.LastLSN
			}
			active = append(active, wal.TxnStatus{Txn: id, State: st, LastLSN: lastLSN})
		}
		s.mu.Unlock()
		return aries.Checkpoint(s.Cfg.Dir, s.Log, s.Pool, active)
	}
	t := s.ts.safeCheckpointTS()
	if err := s.Pool.FlushAll(); err != nil {
		return err
	}
	for _, id := range s.Mgr.IDs() {
		tb, err := s.Mgr.Get(id)
		if err != nil {
			return err
		}
		if err := tb.Heap.SyncData(); err != nil {
			return err
		}
		if err := tb.Heap.FlushMeta(); err != nil {
			return err
		}
	}
	return storage.WriteCheckpointFile(storage.CheckpointPath(s.Cfg.Dir), t)
}

// SeedAppliedTS tells the checkpointer that all commits up to ts are fully
// applied locally; HARBOR recovery calls it when a site comes back online so
// that the first post-recovery checkpoint does not regress to 0.
func (s *Site) SeedAppliedTS(ts tuple.Timestamp) { s.ts.applied(0, ts) }

// LastCheckpoint reads the site's global HARBOR checkpoint time.
func (s *Site) LastCheckpoint() (tuple.Timestamp, error) {
	return storage.ReadCheckpointFile(storage.CheckpointPath(s.Cfg.Dir))
}

// RecoverARIES runs ARIES restart recovery, resolving in-doubt transactions
// against the coordinator's recovery server.
func (s *Site) RecoverARIES() (*aries.Stats, error) {
	resolver := aries.AbortAllResolver
	if s.Cfg.Catalog != nil {
		coordAddr, ok := s.Cfg.Catalog.SiteAddr(s.Cfg.Catalog.Coordinator())
		if ok {
			resolver = func(id int64, state wal.TxnState) (aries.Outcome, error) {
				if aries.PreparedToCommit(state) {
					// Canonical 3PC: prepared-to-commit resolves to commit
					// with the carried time (found again during redo);
					// consult the coordinator which replays consensus.
					out, err := queryOutcome(coordAddr, id)
					if err == nil && out.Commit {
						return out, nil
					}
					return out, err
				}
				return queryOutcome(coordAddr, id)
			}
		}
	}
	st, err := aries.Recover(s.Mgr, s.Pool, s.Log, resolver)
	if err == nil {
		s.SetRecovered()
	}
	return st, err
}

func queryOutcome(addr string, id int64) (aries.Outcome, error) {
	c, err := comm.Dial(addr)
	if err != nil {
		return aries.Outcome{}, err
	}
	defer c.Close()
	resp, err := c.Call(&wire.Msg{Type: wire.MsgTxnOutcome, Txn: id})
	if err != nil {
		return aries.Outcome{}, err
	}
	// Flags: 1 = committed; 0 = aborted/unknown (presumed abort).
	return aries.Outcome{Commit: resp.Yes(), CommitTS: resp.TS}, nil
}

// --- transaction table ---------------------------------------------------

func (s *Site) getTxn(id txn.ID, create bool) *wtxn {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.txns[id]
	if w == nil && create {
		w = &wtxn{id: id, state: txn.StatePending}
		s.txns[id] = w
	}
	return w
}

// setState transitions a transaction and wakes consensus waiters.
func (s *Site) setState(w *wtxn, st txn.State) {
	s.mu.Lock()
	w.state = st
	if c, ok := s.conds[w.id]; ok && st.Terminal() {
		c.Broadcast()
	}
	s.mu.Unlock()
}

// awaitTerminal blocks until the transaction reaches a terminal state or
// the timeout elapses; returns the final state and whether it is terminal.
func (s *Site) awaitTerminal(id txn.ID, timeout time.Duration) (txn.State, bool) {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.txns[id]
	if w == nil {
		return txn.StateAborted, true
	}
	c, ok := s.conds[id]
	if !ok {
		c = sync.NewCond(&s.mu)
		s.conds[id] = c
	}
	for !w.state.Terminal() {
		if time.Now().After(deadline) {
			return w.state, false
		}
		// Cond has no timed wait; poll with a helper waker.
		done := make(chan struct{})
		go func() {
			select {
			case <-time.After(50 * time.Millisecond):
				s.mu.Lock()
				c.Broadcast()
				s.mu.Unlock()
			case <-done:
			}
		}()
		c.Wait()
		close(done)
	}
	return w.state, true
}

// TxnState returns a transaction's state (consensus queries).
func (s *Site) TxnState(id txn.ID) (txn.State, tuple.Timestamp, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.txns[id]
	if w == nil {
		return 0, 0, false
	}
	return w.state, w.commitTS, true
}

// forget drops a terminal transaction's bookkeeping.
func (s *Site) forget(id txn.ID) {
	s.mu.Lock()
	delete(s.txns, id)
	delete(s.conds, id)
	s.mu.Unlock()
	s.ts.resolved(id)
}

var errUnknownTxn = fmt.Errorf("worker: unknown transaction")
