// Package chaos is a Jepsen-style invariant harness for the HARBOR
// reproduction: it runs a randomized insert/update/delete/scan workload on
// a real cluster while a seeded faultnet schedule injects partitions,
// crashes, stalls, delays, and duplicate deliveries; then it heals every
// link, runs HARBOR recovery (§5) on every disturbed site, and checks four
// invariants over the survivors:
//
//  1. every transaction the client was told committed is visible in a
//     post-heal scan on all K replicas;
//  2. no aborted transaction has visible effects;
//  3. all replicas of each table converge to identical logical contents;
//  4. commit timestamps are monotone per the timestamp authority —
//     strictly increasing per client stream, globally unique, and never
//     above the final high water mark.
//
// Every violation message carries the scenario name and seed; re-running
// with the same seed replays the same fault schedule and workload choices.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/faultdisk"
	"harbor/internal/faultnet"
	"harbor/internal/page"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// Table ids used by the harness: streams write tableStreams through the
// real coordinator; the raw Table 4.1 consensus transactions write
// tableConsensus so their multi-second resolution never blocks the stream
// workload on page locks.
const (
	tableStreams   int32 = 1
	tableConsensus int32 = 2
)

// chaosDesc is the workload schema: a key and one value field encoding
// which write produced the visible version.
func chaosDesc() *tuple.Desc {
	return tuple.MustDesc("id",
		tuple.FieldDef{Name: "id", Type: tuple.Int64},
		tuple.FieldDef{Name: "v", Type: tuple.Int64},
	)
}

func mkT(key, val int64) tuple.Tuple {
	return tuple.MustMake(chaosDesc(), tuple.VInt(key), tuple.VInt(val))
}

// Scenario is one named chaos experiment: a disturbance phase (workload +
// fault schedule, via the Harness helpers) over a standard cluster running
// one commit protocol of the protocol × scenario matrix.
type Scenario struct {
	Name     string
	Protocol txn.Protocol // zero value defaults to OptThreePC
	Workers  int
	Drive    func(h *Harness)
	// After, if set, runs on the healed and recovered cluster, before the
	// aftershock workload and the invariant checks. It is the place for
	// fault probes that need a healthy cluster to be meaningful — e.g. the
	// online torn-page repair probe, which requires a live, up-to-date
	// buddy to fetch from.
	After func(h *Harness)
}

// Result reports one chaos run. Violations empty = all invariants held.
type Result struct {
	Scenario     string
	Seed         int64
	Commits      int   // client-confirmed stream commits
	Aborts       int   // stream transactions that ended aborted
	RawTxns      int   // Table 4.1 consensus transactions driven
	Aftershock   int   // post-heal verification transactions (must all commit)
	Disturbed    []int // worker indexes that ran HARBOR recovery post-heal
	PageRepairs  int   // buddy page repairs observed (recover.page_repairs)
	CorruptPages int   // CRC-quarantined pages observed (storage.corrupt_pages)
	ScrubPages   int   // CRC trailers verified by the background scrubbers
	ScrubRepairs int   // pages the background scrubbers repaired from a buddy
	CommitP99NS  int64 // p99 commit latency over the round (coord.commit.latency.ns)
	Violations   []string
	Trace        []string // the fault schedule as executed (network + disk)
}

// opKind is a stream operation.
type opKind int

const (
	opInsert opKind = iota
	opUpdate
	opDelete
)

func (k opKind) String() string {
	return [...]string{"insert", "update", "delete"}[k]
}

// opRec is one stream transaction as the client observed it.
type opRec struct {
	stream   int
	id       txn.ID
	kind     opKind
	key, val int64
	clientOK bool // Commit returned success
	clientTS tuple.Timestamp
}

// rawRec is one manually-driven 3PC transaction whose coordinator "died"
// mid-protocol, resolved by worker consensus (Table 4.1).
type rawRec struct {
	id           txn.ID
	key, val     int64
	ts           tuple.Timestamp
	expectCommit bool
}

// Harness wires one scenario run together. Drive functions use its
// helpers to run workload streams, script faults, and crash workers.
type Harness struct {
	Seed int64
	Name string
	Net  *faultnet.Network
	Disk *faultdisk.Disk
	Cl   *testutil.Cluster

	rng     *rand.Rand // fault-schedule randomness (Drive goroutine only)
	scanIDs *txn.IDSource

	mu         sync.Mutex
	ops        [][]opRec
	raws       []rawRec
	crashed    map[int]bool
	violations []string
}

// Run executes one scenario under one seed and checks the invariants.
func Run(sc Scenario, seed int64, baseDir string) (*Result, error) {
	res := &Result{Scenario: sc.Name, Seed: seed}
	nw := faultnet.New(seed)
	nw.Install()
	defer nw.Uninstall()

	// The disk seam mirrors the network one: every worker's site directory
	// goes through the seeded fault-injecting filesystem, so CrashWorker can
	// materialize the loss of unsynced writes the way a power cut would.
	// Registration happens before the cluster opens any file — files opened
	// before registration would bypass the seam.
	clusterDir := filepath.Join(baseDir, fmt.Sprintf("%s-%d", sc.Name, seed))
	fd := faultdisk.New(seed)
	for i := 0; i < sc.Workers; i++ {
		fd.Register(filepath.Join(clusterDir, fmt.Sprintf("site%d", testutil.WorkerSiteID(i))), fmt.Sprintf("w%d", i))
	}
	fd.Install()
	defer fd.Uninstall()

	protocol := sc.Protocol
	if protocol == 0 {
		protocol = txn.OptThreePC
	}
	mode := worker.HARBOR
	if protocol.Plan().WorkerForces() {
		mode = worker.ARIES
	}
	cl, err := testutil.NewCluster(testutil.ClusterConfig{
		Workers:     sc.Workers,
		Protocol:    protocol,
		Mode:        mode,
		GroupCommit: true,
		// RoundTimeout must exceed LockTimeout: a healthy worker may
		// legally sit on a contended page lock for a full lock wait before
		// answering an update, and a fan-out timeout is read as fail-stop
		// (§4.3.5 eviction). With the margin inverted, a lock queue during
		// the fault-free aftershock — easiest to build under the 2PC plans,
		// whose commit holds locks across the coordinator's group-commit
		// force — gets a replica evicted with no recovery pass left to
		// bring it back, and the final scans see it stale.
		LockTimeout:  500 * time.Millisecond,
		RoundTimeout: 800 * time.Millisecond,
		DialTimeout:  time.Second,
		BaseDir:      clusterDir,
	})
	if err != nil {
		return res, err
	}
	defer cl.Close()
	for i := range cl.Workers {
		nw.Name(cl.Workers[i].Addr(), fmt.Sprintf("w%d", i))
	}
	desc := chaosDesc()
	if err := cl.CreateReplicatedTable(tableStreams, desc, 4); err != nil {
		return res, err
	}
	if err := cl.CreateReplicatedTable(tableConsensus, desc, 4); err != nil {
		return res, err
	}

	h := &Harness{
		Seed:    seed,
		Name:    sc.Name,
		Net:     nw,
		Disk:    fd,
		Cl:      cl,
		rng:     rand.New(rand.NewSource(seed)),
		scanIDs: txn.NewIDSource(9),
		crashed: map[int]bool{},
	}

	sc.Drive(h)

	if err := h.healAndRecover(res); err != nil {
		return res, fmt.Errorf("chaos %s seed=%d: heal/recover: %w", sc.Name, seed, err)
	}
	if err := h.quiesce(15 * time.Second); err != nil {
		return res, fmt.Errorf("chaos %s seed=%d: %w", sc.Name, seed, err)
	}
	if sc.After != nil {
		sc.After(h)
	}
	h.aftershock(res)
	if err := h.quiesce(5 * time.Second); err != nil {
		return res, fmt.Errorf("chaos %s seed=%d: aftershock %w", sc.Name, seed, err)
	}
	h.checkInvariants(res)
	for i := range cl.Workers {
		res.PageRepairs += int(cl.Workers[i].Obs().Counter("recover.page_repairs").Load())
		res.CorruptPages += int(cl.Workers[i].Obs().Counter("storage.corrupt_pages").Load())
		res.ScrubPages += int(cl.Workers[i].Obs().Counter("storage.scrub.pages").Load())
		res.ScrubRepairs += int(cl.Workers[i].Obs().Counter("storage.scrub.repairs").Load())
	}
	// Latency SLO signal for the soak driver: the round's commit p99. A
	// round where this explodes means queries/commits stalled behind a
	// recovery or fault window even though the end-state invariants held.
	res.CommitP99NS = cl.Coord.Obs().Histogram("coord.commit.latency.ns").Snapshot().P99
	res.Trace = append(nw.Trace(), fd.Trace()...)
	return res, nil
}

// violatef records one invariant violation, stamped with scenario + seed.
func (h *Harness) violatef(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.violations = append(h.violations,
		fmt.Sprintf("chaos %s seed=%d: ", h.Name, h.Seed)+fmt.Sprintf(format, args...))
}

// violateTxnf is violatef for violations that implicate one transaction: the
// message additionally carries the offending transaction's trace timeline
// from every site (coordinator protocol rounds, worker phase handling), so a
// failure report is self-contained — the seed replays the run, the timelines
// say where the protocol went wrong.
func (h *Harness) violateTxnf(id txn.ID, format string, args ...any) {
	msg := fmt.Sprintf("chaos %s seed=%d: ", h.Name, h.Seed) +
		fmt.Sprintf(format, args...) + "\n" + h.txnTimelines(id)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.violations = append(h.violations, msg)
}

// txnTimelines renders one transaction's trace from the coordinator and
// every live worker, indented for inclusion in a violation message.
func (h *Harness) txnTimelines(id txn.ID) string {
	var b strings.Builder
	write := func(site, dump string) {
		b.WriteString("  " + site + " " + strings.ReplaceAll(strings.TrimRight(dump, "\n"), "\n", "\n  ") + "\n")
	}
	write("coordinator", h.Cl.Coord.Trace().Dump(int64(id)))
	for i, w := range h.Cl.Workers {
		if w.Crashed() {
			continue
		}
		write(fmt.Sprintf("worker %d", i), w.Trace().Dump(int64(id)))
	}
	return strings.TrimRight(b.String(), "\n")
}

// heldRanges returns the key ranges the catalog placement assigns worker i
// for a table. Full replication — every pre-existing scenario — yields one
// full range per worker; the join/rebalance scenario leaves partial ones.
func (h *Harness) heldRanges(i int, table int32) []expr.KeyRange {
	var out []expr.KeyRange
	for _, rep := range h.Cl.Catalog.ReplicasOn(testutil.WorkerSiteID(i)) {
		if rep.Table == table {
			out = append(out, rep.Range)
		}
	}
	return out
}

// workerHolds reports whether worker i's placement covers one logical row.
func (h *Harness) workerHolds(i int, k tkey) bool {
	for _, rng := range h.heldRanges(i, k.table) {
		if rng.Contains(k.key) {
			return true
		}
	}
	return false
}

// workerAddr returns the current listen address of worker i.
func (h *Harness) workerAddr(i int) string {
	addr, _ := h.Cl.Catalog.SiteAddr(testutil.WorkerSiteID(i))
	return addr
}

// CrashWorker fail-stops worker i (it stays down until post-heal recovery).
// With the disk seam installed the crash also materializes storage losses:
// every write since the last real fsync is kept, dropped, or torn per the
// seeded schedule, exactly like a power cut under the site.
func (h *Harness) CrashWorker(i int) {
	h.mu.Lock()
	h.crashed[i] = true
	h.mu.Unlock()
	h.Cl.Workers[i].Crash()
	if h.Disk != nil {
		h.Disk.CrashSite(h.siteDir(i))
	}
}

// siteDir returns worker i's on-disk site directory.
func (h *Harness) siteDir(i int) string { return h.Cl.Workers[i].Cfg.Dir }

// TearPage flips bytes in one randomly chosen flushed heap page of a table
// on worker i, directly on disk (simulated media corruption — deliberately
// below the vfs seam). Returns false if the table has no flushed page yet.
func (h *Harness) TearPage(i int, table int32) bool {
	path := filepath.Join(h.siteDir(i), fmt.Sprintf("table_%d.heap", table))
	fi, err := os.Stat(path)
	if err != nil || fi.Size() < page.Size {
		return false
	}
	pageNo := h.rng.Int63n(fi.Size() / page.Size)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	off := pageNo*page.Size + page.Size/2
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, off); err != nil {
		return false
	}
	for j := range buf {
		buf[j] ^= 0xA5
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		return false
	}
	h.Disk.Tracef("chaos tore page %d of table %d on w%d", pageNo, table, i)
	return true
}

// sleepMS sleeps a schedule-chosen duration in [lo, hi] milliseconds.
func (h *Harness) sleepMS(lo, hi int) {
	time.Sleep(time.Duration(lo+h.rng.Intn(hi-lo+1)) * time.Millisecond)
}

// RunWorkload runs `streams` concurrent client streams of `txnsPerStream`
// transactions each against tableStreams while executing the fault
// schedule on the calling goroutine; it returns when both are done.
func (h *Harness) RunWorkload(streams, txnsPerStream int, faults func()) {
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h.stream(s, txnsPerStream)
		}(s)
	}
	faults()
	wg.Wait()
}

// stream is one client: a sequence of single-op transactions over its own
// key range, with stream-local bookkeeping of which keys are live.
func (h *Harness) stream(s, n int) {
	rng := rand.New(rand.NewSource(h.Seed*7919 + int64(s)))
	co := h.Cl.Coord
	nextKey := int64(s+1) << 32
	var live []int64 // keys with a confirmed-committed insert, not yet deleted
	recs := make([]opRec, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			// Exercise the distributed read path mid-fault; contents are
			// verified post-heal, here only that scans don't wedge.
			_, _ = co.Scan(tableStreams, coord.QueryOptions{Historical: true})
			continue
		}
		kind := opInsert
		if len(live) > 0 {
			switch rng.Intn(10) {
			case 0, 1:
				kind = opDelete
			case 2, 3, 4:
				kind = opUpdate
			}
		}
		rec := opRec{stream: s, kind: kind, val: int64(s+1)<<40 + int64(i)}
		switch kind {
		case opInsert:
			rec.key = nextKey
			nextKey++
		default:
			rec.key = live[rng.Intn(len(live))]
		}

		tx := co.Begin()
		rec.id = tx.ID()
		var err error
		switch kind {
		case opInsert:
			err = tx.Insert(tableStreams, mkT(rec.key, rec.val))
		case opUpdate:
			err = tx.UpdateKey(tableStreams, rec.key, mkT(rec.key, rec.val))
		case opDelete:
			err = tx.DeleteKey(tableStreams, rec.key)
		}
		if err == nil {
			// Client think-time between the last write and COMMIT. Without
			// it the write→prepare gap is microseconds and a fault arming
			// mid-run almost always lands on the (well-trodden) distribute
			// path; the gap puts the commit rounds themselves under fire.
			time.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		}
		if err != nil {
			_ = tx.Abort()
		} else if ts, cerr := tx.Commit(); cerr == nil {
			rec.clientOK, rec.clientTS = true, ts
			switch kind {
			case opInsert:
				live = append(live, rec.key)
			case opDelete:
				for j, k := range live {
					if k == rec.key {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
			}
		}
		recs = append(recs, rec)
		time.Sleep(time.Duration(1+rng.Intn(7)) * time.Millisecond)
	}
	h.mu.Lock()
	h.ops = append(h.ops, recs)
	h.mu.Unlock()
}

// aftershock runs a short fault-free workload after heal and recovery: a
// healed, fully recovered cluster must accept and commit every transaction.
// It deliberately goes through the coordinator's pooled connections — the
// ones that lived through the fault era — so residual damage (a stale or
// desynchronised pooled conn, a replica wrongly left out of the update set)
// surfaces as a visible failure instead of lingering.
func (h *Harness) aftershock(res *Result) {
	// As many concurrent streams as the fault-era workload ran, so the
	// connection pools are drained to the same depth they reached while
	// faults were active (Pool.Get is LIFO: a serial prober would only
	// ever see the freshest connection).
	const streams, txns = 4, 8
	h.mu.Lock()
	before := len(h.ops)
	h.mu.Unlock()
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h.stream(5+s, txns) // key ranges disjoint from workload streams
		}(s)
	}
	wg.Wait()
	h.mu.Lock()
	recs := h.ops[before:]
	h.mu.Unlock()
	for _, rs := range recs {
		for i, r := range rs {
			res.Aftershock++
			if r.clientOK {
				continue
			}
			// An abort on the healed cluster is not by itself residual
			// damage: concurrent streams can deadlock across replicas (the
			// fan-out grants the same pages in different orders on different
			// sites), and §6.1.2 breaks deadlocks by timeout-and-abort with
			// the client expected to retry. Only a transaction that keeps
			// failing after retries is flagged. If a later transaction of the
			// same stream already committed against the same key, that commit
			// both proves the cluster accepted the stream's work and makes a
			// retry wrong (re-driving the op now would act on superseded
			// state — e.g. update a row a committed delete removed).
			superseded := false
			for _, later := range rs[i+1:] {
				if later.key == r.key && later.clientOK {
					superseded = true
					break
				}
			}
			if superseded {
				continue
			}
			if !h.retryOp(r) {
				h.violateTxnf(r.id, "aftershock: txn %d (%s key=%d) failed on the healed cluster and on retry", r.id, r.kind, r.key)
			}
		}
	}
}

// retryOp re-drives one failed aftershock operation as a fresh transaction,
// up to two attempts. Every attempt is recorded in h.ops so the invariant
// accounting (expected state, abort counts, timestamp checks) covers it.
func (h *Harness) retryOp(r opRec) bool {
	for attempt := 0; attempt < 2; attempt++ {
		rec := opRec{stream: r.stream, kind: r.kind, key: r.key, val: r.val}
		tx := h.Cl.Coord.Begin()
		rec.id = tx.ID()
		var err error
		switch r.kind {
		case opInsert:
			err = tx.Insert(tableStreams, mkT(rec.key, rec.val))
		case opUpdate:
			err = tx.UpdateKey(tableStreams, rec.key, mkT(rec.key, rec.val))
		case opDelete:
			err = tx.DeleteKey(tableStreams, rec.key)
		}
		if err != nil {
			_ = tx.Abort()
		} else if ts, cerr := tx.Commit(); cerr == nil {
			rec.clientOK, rec.clientTS = true, ts
		}
		h.mu.Lock()
		h.ops = append(h.ops, []opRec{rec})
		h.mu.Unlock()
		if rec.clientOK {
			return true
		}
	}
	return false
}

// healAndRecover lifts every fault, restarts every disturbed worker, and
// runs HARBOR recovery on each (serially: a recovered site rejoins the
// update set and becomes a legitimate buddy for the next).
func (h *Harness) healAndRecover(res *Result) error {
	h.Net.HealAll()
	// Let workers observe their closed connections (orphan detection).
	time.Sleep(50 * time.Millisecond)

	var disturbed []int
	for i := range h.Cl.Workers {
		h.mu.Lock()
		crashed := h.crashed[i]
		h.mu.Unlock()
		crashed = crashed || h.Cl.Workers[i].Crashed()
		if crashed || h.Cl.Coord.SiteDown(testutil.WorkerSiteID(i)) {
			disturbed = append(disturbed, i)
		}
		// Only a crashed worker restarts. An evicted-but-alive worker (a
		// partition or stall got it marked down) rejoins by running
		// recovery in place, §5.5 — which means the coordinator keeps its
		// old connection pool for the site, exactly the state a recycled
		// stale connection would be hiding in.
		if crashed {
			if _, err := h.Cl.RestartWorker(i); err != nil {
				return fmt.Errorf("restart worker %d: %w", i, err)
			}
		}
	}
	res.Disturbed = disturbed

	// Let in-doubt transactions resolve (orphaned workers consult the
	// coordinator's outcome service, §5.5) before recovery rewinds state:
	// Phase 1 must not race a prepared transaction that is about to be
	// committed onto this site.
	if err := h.quiesce(10 * time.Second); err != nil {
		return fmt.Errorf("pre-recovery %w", err)
	}

	// Recover in passes: when a total outage left several replicas of a
	// table offline at once, only the final survivor can rejoin first
	// (from its own data); the others fail their recovery plan with
	// ErrKSafetyExceeded until a rejoined replica becomes a legitimate
	// buddy. Retrying in passes mirrors a recovery daemon.
	remaining := disturbed
	for len(remaining) > 0 {
		var deferred []int
		for _, i := range remaining {
			r := core.New(h.Cl.Workers[i], h.Cl.Catalog)
			if _, err := r.RecoverSite(core.Options{Parallel: true}); err != nil {
				if errors.Is(err, catalog.ErrKSafetyExceeded) {
					deferred = append(deferred, i)
					continue
				}
				return fmt.Errorf("recover worker %d: %w", i, err)
			}
		}
		if len(deferred) == len(remaining) {
			return fmt.Errorf("recovery stuck: workers %v all fail with K-safety exceeded", deferred)
		}
		remaining = deferred
	}
	return nil
}

// quiesce waits until every recorded transaction is terminal on every
// worker, so post-heal scans observe final state only.
func (h *Harness) quiesce(timeout time.Duration) error {
	h.mu.Lock()
	var ids []txn.ID
	for _, recs := range h.ops {
		for _, r := range recs {
			ids = append(ids, r.id)
		}
	}
	for _, r := range h.raws {
		ids = append(ids, r.id)
	}
	h.mu.Unlock()

	deadline := time.Now().Add(timeout)
	for {
		var pending []string
		for wi, w := range h.Cl.Workers {
			if w.Crashed() {
				continue
			}
			for _, id := range ids {
				if st, _, ok := w.TxnState(id); ok && !st.Terminal() {
					pending = append(pending, fmt.Sprintf("txn %d %v on worker %d", id, st, wi))
				}
			}
		}
		if len(pending) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce: %d transactions still unresolved after %v: %s",
				len(pending), timeout, strings.Join(pending, "; "))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tkey addresses one logical row across the harness's tables.
type tkey struct {
	table int32
	key   int64
}

// repRow is one visible row of a replica scan.
type repRow struct {
	val int64
	ts  tuple.Timestamp
}

// checkInvariants resolves every transaction's outcome at the coordinator,
// computes the expected logical contents, scans every replica, and checks
// the four invariants.
func (h *Harness) checkInvariants(res *Result) {
	co := h.Cl.Coord
	hwm := co.Authority.HWM()

	// --- resolve outcomes and build the expected state -----------------
	expected := map[tkey]repRow{}
	writer := map[tkey]txn.ID{} // which txn wrote the expected row (for timeline dumps)
	seenTS := map[tuple.Timestamp]txn.ID{}
	h.mu.Lock()
	ops, raws := h.ops, h.raws
	h.mu.Unlock()

	for _, recs := range ops {
		var lastTS tuple.Timestamp
		for _, rec := range recs {
			committed, ts, known := co.Outcome(rec.id)
			if rec.clientOK {
				res.Commits++
				if !known || !committed {
					h.violateTxnf(rec.id, "invariant 1: txn %d (%s key=%d) was confirmed to the client but the coordinator records it aborted", rec.id, rec.kind, rec.key)
					continue
				}
				if ts != rec.clientTS {
					h.violateTxnf(rec.id, "invariant 4: txn %d returned commit ts %d to the client but recorded %d", rec.id, rec.clientTS, ts)
				}
			} else {
				res.Aborts++
				if known && committed {
					h.violateTxnf(rec.id, "invariant 2: txn %d (%s key=%d) errored at the client but the coordinator recorded a commit", rec.id, rec.kind, rec.key)
				}
			}
			if !(known && committed) {
				continue
			}
			// invariant 4: per-stream monotone, globally unique commit times.
			if ts <= lastTS {
				h.violateTxnf(rec.id, "invariant 4: stream %d commit ts not monotone: %d after %d (txn %d)", rec.stream, ts, lastTS, rec.id)
			}
			lastTS = ts
			if prev, dup := seenTS[ts]; dup {
				h.violateTxnf(rec.id, "invariant 4: commit ts %d issued to both txn %d and txn %d", ts, prev, rec.id)
			}
			seenTS[ts] = rec.id
			if ts > hwm {
				h.violateTxnf(rec.id, "invariant 4: txn %d committed at ts %d above the final HWM %d", rec.id, ts, hwm)
			}
			k := tkey{tableStreams, rec.key}
			switch rec.kind {
			case opInsert, opUpdate:
				expected[k] = repRow{val: rec.val, ts: ts}
				writer[k] = rec.id
			case opDelete:
				delete(expected, k)
				delete(writer, k)
			}
		}
	}
	for _, rec := range raws {
		res.RawTxns++
		if !rec.expectCommit {
			continue
		}
		if prev, dup := seenTS[rec.ts]; dup {
			h.violatef("invariant 4: commit ts %d issued to both txn %d and raw txn %d", rec.ts, prev, rec.id)
		}
		seenTS[rec.ts] = rec.id
		expected[tkey{tableConsensus, rec.key}] = repRow{val: rec.val, ts: rec.ts}
		writer[tkey{tableConsensus, rec.key}] = rec.id
	}

	// --- scan every replica and compare --------------------------------
	replicas := make([]map[tkey]repRow, len(h.Cl.Workers))
	for i := range h.Cl.Workers {
		rep, err := h.scanReplica(i, hwm)
		if err != nil {
			h.violatef("invariant 3: replica scan of worker %d failed post-heal: %v", i, err)
			continue
		}
		replicas[i] = rep
		// Invariants 1 and 2 apply to the rows the placement assigns this
		// worker: a committed row it covers must be visible, a row it does
		// not cover must not exist here at all (the donor purge after a
		// segment move must actually have removed it).
		for k, want := range expected {
			if !h.workerHolds(i, k) {
				continue
			}
			got, ok := rep[k]
			if !ok {
				h.violatef("invariant 1: committed row table=%d key=%d (val=%d ts=%d) missing on worker %d", k.table, k.key, want.val, want.ts, i)
				continue
			}
			if got != want {
				h.violatef("invariant 1: row table=%d key=%d on worker %d is (val=%d ts=%d), want (val=%d ts=%d)", k.table, k.key, i, got.val, got.ts, want.val, want.ts)
			}
		}
		for k, got := range rep {
			if !h.workerHolds(i, k) {
				h.violatef("invariant 2: worker %d still holds row table=%d key=%d (val=%d ts=%d) outside every range the placement assigns it", i, k.table, k.key, got.val, got.ts)
				continue
			}
			if _, ok := expected[k]; !ok {
				h.violatef("invariant 2: worker %d shows row table=%d key=%d (val=%d ts=%d) from a transaction that did not commit (or was deleted)", i, k.table, k.key, got.val, got.ts)
			}
		}
	}
	// invariant 3: replica convergence, checked pairwise against worker 0
	// (independent of the expected-state model above) over the keys both
	// placements cover — with partial replicas the raw row counts
	// legitimately differ, but the shared coverage must agree exactly.
	for i := 1; i < len(replicas); i++ {
		if replicas[0] == nil || replicas[i] == nil {
			continue
		}
		for k, r0 := range replicas[0] {
			if !h.workerHolds(i, k) || !h.workerHolds(0, k) {
				continue
			}
			if ri, ok := replicas[i][k]; !ok || ri != r0 {
				h.violatef("invariant 3: workers 0 and %d diverge at table=%d key=%d: (%v,%v) vs (%v,%v)", i, k.table, k.key, r0.val, r0.ts, ri.val, ri.ts)
			}
		}
		for k := range replicas[i] {
			if !h.workerHolds(0, k) || !h.workerHolds(i, k) {
				continue
			}
			if _, ok := replicas[0][k]; !ok {
				ri := replicas[i][k]
				h.violatef("invariant 3: worker %d shows table=%d key=%d (%v,%v) that worker 0 (also covering it) misses", i, k.table, k.key, ri.val, ri.ts)
			}
		}
	}

	// The coordinator's own distributed read path — which borrows from the
	// same connection pools the fault era disturbed — must agree with the
	// direct replica scans.
	desc := chaosDesc()
	for _, table := range []int32{tableStreams, tableConsensus} {
		rows, err := co.Scan(table, coord.QueryOptions{Historical: true, AsOf: hwm})
		if err != nil {
			h.violatef("invariant 3: coordinator scan of table %d failed post-heal: %v", table, err)
			continue
		}
		got := map[tkey]repRow{}
		for _, t := range rows {
			got[tkey{table, t.Key(desc)}] = repRow{
				val: t.Values[desc.FieldIndex("v")].I64,
				ts:  t.InsTS(),
			}
		}
		for k, want := range expected {
			if k.table != table {
				continue
			}
			if g, ok := got[k]; !ok {
				h.violatef("invariant 3: coordinator scan of table %d misses committed key %d (val=%d ts=%d)", table, k.key, want.val, want.ts)
			} else if g != want {
				h.violatef("invariant 3: coordinator scan of table %d returns key %d as (val=%d ts=%d), want (val=%d ts=%d)", table, k.key, g.val, g.ts, want.val, want.ts)
			}
			delete(got, k)
		}
		for k, g := range got {
			h.violatef("invariant 3: coordinator scan of table %d returns key %d (val=%d ts=%d) that should not exist", table, k.key, g.val, g.ts)
		}
	}

	h.checkAggregates(expected, hwm)

	h.mu.Lock()
	res.Violations = append(res.Violations, h.violations...)
	h.mu.Unlock()
}

// checkAggregates is the post-heal aggregate invariant: a pushed-down
// group-by-v aggregate over the streams table must match both the reference
// aggregate over a Scan at the same AsOf and the group values derived from
// the expected logical state. The fault era
// alternated scans and pushed-down aggregates against stalls, crashes, and
// throttled buddies (see ScanStall); whatever failovers those queries took,
// the slot discard-and-refetch rule must leave no group lost or
// double-counted once the cluster is healthy again.
func (h *Harness) checkAggregates(expected map[tkey]repRow, hwm tuple.Timestamp) {
	desc := chaosDesc()
	plan := exec.AggPlan{GroupField: desc.FieldIndex("v"), Aggs: []exec.AggSpec{
		{Fn: exec.Count},
		{Fn: exec.Sum, Field: desc.FieldIndex("id")},
	}}
	type gv struct{ count, sum int64 }
	want := map[int64]gv{}
	for k, r := range expected {
		if k.table != tableStreams {
			continue
		}
		g := want[r.val]
		g.count++
		g.sum += k.key
		want[r.val] = g
	}
	opt := coord.QueryOptions{Historical: true, AsOf: hwm}
	push, err := h.Cl.Coord.Aggregate(tableStreams, opt, plan)
	if err != nil {
		h.violatef("aggregate invariant: pushdown aggregate failed post-heal: %v", err)
		return
	}
	rows, err := h.Cl.Coord.Scan(tableStreams, opt)
	if err != nil {
		h.violatef("aggregate invariant: reference scan failed post-heal: %v", err)
		return
	}
	ref := testutil.RefAggregate(rows, plan)
	if len(push) != len(ref) {
		h.violatef("aggregate invariant: pushdown returns %d groups, reference returns %d", len(push), len(ref))
		return
	}
	for i, row := range push {
		key, cnt, sum := row.Values[0].I64, row.Values[1].I64, row.Values[2].I64
		a := ref[i]
		if a.Values[0].I64 != key || a.Values[1].I64 != cnt || a.Values[2].I64 != sum {
			h.violatef("aggregate invariant: group %d pushdown (v=%d count=%d sum=%d) != reference (v=%d count=%d sum=%d)",
				i, key, cnt, sum, a.Values[0].I64, a.Values[1].I64, a.Values[2].I64)
		}
		w, ok := want[key]
		if !ok {
			h.violatef("aggregate invariant: pushdown returns group v=%d that the expected state does not contain", key)
			continue
		}
		if w.count != cnt || w.sum != sum {
			h.violatef("aggregate invariant: group v=%d pushdown (count=%d sum=%d), expected state implies (count=%d sum=%d)",
				key, cnt, sum, w.count, w.sum)
		}
		delete(want, key)
	}
	for key, w := range want {
		h.violatef("aggregate invariant: expected state implies group v=%d (count=%d sum=%d) that the pushdown misses", key, w.count, w.sum)
	}
}

// scanReplica reads one worker's visible contents of both tables directly
// (historical, unlocked, as of the final HWM) over a dedicated connection.
// Each scan declares one of the worker's held key ranges: a full-range
// declaration on a site whose coverage shrank would be refused as
// placement-stale, exactly like a stale coordinator plan. The worker streams
// its whole physical table either way (the declaration gates, it does not
// filter), so rows lingering outside the held ranges still surface — and
// the invariant checks flag them.
func (h *Harness) scanReplica(i int, asOf tuple.Timestamp) (map[tkey]repRow, error) {
	desc := chaosDesc()
	c, err := comm.Dial(h.Cl.Workers[i].Addr())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := map[tkey]repRow{}
	for _, table := range []int32{tableStreams, tableConsensus} {
		held := h.heldRanges(i, table)
		if len(held) == 0 {
			continue // the placement assigns this worker nothing of the table
		}
		rng := held[0]
		id := h.scanIDs.Next()
		if err := c.Send(&wire.Msg{
			Type: wire.MsgScan, Txn: id, Table: table,
			Vis: uint8(exec.Historical), TS: asOf,
			KeyLo: rng.Lo, KeyHi: rng.Hi,
		}); err != nil {
			return nil, err
		}
	stream:
		for {
			resp, err := c.RecvTimeout(5 * time.Second)
			if err != nil {
				return nil, err
			}
			switch resp.Type {
			case wire.MsgErr:
				return nil, resp.Err()
			case wire.MsgScanEnd:
				break stream
			case wire.MsgTupleBatch:
				n, err := wire.CheckBatch(resp, desc.Width())
				if err != nil {
					return nil, err
				}
				b := tuple.NewBatch(n)
				if err := b.DecodeBatch(desc, resp.Raw); err != nil {
					return nil, err
				}
				for _, t := range b.Rows() {
					out[tkey{table, t.Key(desc)}] = repRow{
						val: t.Values[desc.FieldIndex("v")].I64,
						ts:  t.InsTS(),
					}
				}
			default:
				return nil, fmt.Errorf("chaos: unexpected %v in scan stream", resp.Type)
			}
		}
		if _, err := c.Call(&wire.Msg{Type: wire.MsgEndRead, Txn: id}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
