package coord

import (
	"fmt"
	"sort"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wal"
	"harbor/internal/wire"
)

// Txn is a client-visible distributed transaction handle.
type Txn struct {
	co *Coordinator
	t  *ctxn
}

// Begin starts a distributed update transaction.
func (co *Coordinator) Begin() *Txn {
	id := co.ids.Next()
	t := &ctxn{id: id, workers: map[catalog.SiteID]*comm.Conn{}}
	co.mu.Lock()
	co.txns[id] = t
	co.mu.Unlock()
	co.trace.Recordf(int64(id), obs.EvBegin, "proto=%s", co.cfg.Protocol)
	return &Txn{co: co, t: t}
}

// ID returns the transaction id.
func (tx *Txn) ID() txn.ID { return tx.t.id }

// distribute sends one logical update request to every live replica of its
// key — concurrently, one goroutine per replica (§4.1: the round costs the
// slowest replica's RTT, not the sum) — and queues it for possible replay
// to recovering sites. Each Txn belongs to one client goroutine; the txn
// mutex is held only while mutating the queue/worker set, never across the
// network calls, so the §5.4.2 join replay can run while an update waits
// behind Phase 3 locks.
func (tx *Txn) distribute(m *wire.Msg, key int64) error {
	co := tx.co
	t := tx.t
	m.Txn = t.id

	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return fmt.Errorf("coord: transaction %d already finished", t.id)
	}
	sites := co.cfg.Catalog.UpdateSites(m.Table, key, func(s catalog.SiteID) bool {
		return co.objectIsOnline(m.Table, s)
	})
	if len(sites) == 0 {
		t.mu.Unlock()
		return fmt.Errorf("coord: no live replicas for table %d key %d", m.Table, key)
	}
	entry := &queuedUpdate{msg: m, sentTo: map[catalog.SiteID]bool{}}
	t.queue = append(t.queue, entry)
	var targets []fanTarget
	for _, site := range sites {
		conn, ok := t.workers[site]
		if !ok {
			var err error
			conn, err = co.dialWorkerForTxn(t, site)
			if err != nil {
				// §4.3.5: a worker crashing mid-transaction need not abort
				// it; continue with K-1 safety.
				continue
			}
		}
		entry.sentTo[site] = true // claimed before the call so the join
		// replay never double-sends this entry to the same site
		targets = append(targets, fanTarget{site, conn})
	}
	t.mu.Unlock()

	co.trace.Recordf(int64(t.id), obs.EvSend, "msg=%s table=%d targets=%d", m.Type, m.Table, len(targets))
	sent := 0
	var logical error
	for _, r := range co.round(targets, func(fanTarget) *wire.Msg { return m }) {
		if r.err != nil {
			// Connection drop: fail-stop signal. Drop the worker (K-1).
			tx.dropWorker(r.site, r.conn)
			continue
		}
		if err := r.resp.Err(); err != nil {
			// Logical error (e.g. deadlock timeout): abort path. Keep the
			// first one in site order for a deterministic message.
			if logical == nil {
				logical = err
			}
			continue
		}
		sent++
	}
	if logical != nil {
		return logical
	}
	if sent == 0 {
		return fmt.Errorf("coord: update reached no replica of table %d", m.Table)
	}
	return nil
}

// dropWorker removes a fail-stopped worker from the transaction and the
// failure detector's live set, closing its dedicated connection. The conn
// is compared so a replacement dialed by the join replay is never removed.
func (tx *Txn) dropWorker(site catalog.SiteID, conn *comm.Conn) {
	tx.co.trace.Recordf(int64(tx.t.id), obs.EvEvict, "site=%d", site)
	tx.co.MarkDown(site)
	t := tx.t
	t.mu.Lock()
	if t.workers[site] == conn {
		delete(t.workers, site)
	}
	t.mu.Unlock()
	conn.Close()
}

// Insert distributes an insert of the tuple to all replicas covering its key.
func (tx *Txn) Insert(table int32, t tuple.Tuple) error {
	spec, ok := tx.co.cfg.Catalog.Table(table)
	if !ok {
		return fmt.Errorf("coord: unknown table %d", table)
	}
	return tx.distribute(&wire.Msg{
		Type: wire.MsgInsert, Table: table, Tuple: wire.TupleValues(t),
	}, t.Key(spec.Desc))
}

// DeleteKey distributes a versioned delete by key.
func (tx *Txn) DeleteKey(table int32, key int64) error {
	return tx.distribute(&wire.Msg{Type: wire.MsgDeleteKey, Table: table, Key: key}, key)
}

// UpdateKey distributes a full-row update by key (user fields replaced).
func (tx *Txn) UpdateKey(table int32, key int64, replacement tuple.Tuple) error {
	return tx.distribute(&wire.Msg{
		Type: wire.MsgUpdateKey, Table: table, Key: key, Tuple: wire.TupleValues(replacement),
	}, key)
}

// SimWork asks every worker already participating to burn CPU cycles
// (the §6.3.2 workload), all replicas spinning concurrently. If no worker
// has joined yet it targets every replica site of the given table.
func (tx *Txn) SimWork(table int32, cycles int64) error {
	co := tx.co
	t := tx.t
	t.mu.Lock()
	sites := co.cfg.Catalog.UpdateSites(table, 0, func(s catalog.SiteID) bool {
		return co.objectIsOnline(table, s)
	})
	var targets []fanTarget
	for _, site := range sites {
		conn, ok := t.workers[site]
		if !ok {
			var err error
			conn, err = co.dialWorkerForTxn(t, site)
			if err != nil {
				continue
			}
		}
		targets = append(targets, fanTarget{site, conn})
	}
	t.mu.Unlock()
	var logical error
	for _, r := range co.round(targets, func(t fanTarget) *wire.Msg {
		return &wire.Msg{Type: wire.MsgSimWork, Txn: tx.t.id, Cycles: cycles}
	}) {
		if r.err != nil {
			tx.dropWorker(r.site, r.conn)
			continue
		}
		if err := r.resp.Err(); err != nil && logical == nil {
			logical = err
		}
	}
	return logical
}

// finish releases the transaction record and recycles worker connections.
func (tx *Txn) finish() {
	co := tx.co
	t := tx.t
	t.mu.Lock()
	t.done = true
	conns := t.workers
	t.workers = map[catalog.SiteID]*comm.Conn{}
	t.queue = nil
	t.mu.Unlock()
	for site, conn := range conns {
		// A down site's conn may carry an unread late response (RoundTimeout
		// eviction); recycling it would desynchronise the next borrower.
		if co.SiteDown(site) {
			conn.Close()
			continue
		}
		if p, err := co.pool(site); err == nil {
			p.Put(conn)
		} else {
			conn.Close()
		}
	}
	co.mu.Lock()
	delete(co.txns, t.id)
	co.mu.Unlock()
}

// sweepRound drives one protocol round: fan one message out to every
// target and collect the responses. Any target whose exchange failed is
// evicted through the single dropWorker path — close the conn, never
// recycle it, because on a RoundTimeout the replica may still be alive
// with its late response queued, and a recycled conn would feed that
// stale reply to the next borrower. Commit, abort, and every plan round
// share this one eviction path. The returned results are the successful
// exchanges only.
func (tx *Txn) sweepRound(targets []fanTarget, m *wire.Msg) []fanResult {
	trace := tx.co.trace
	trace.Recordf(int64(tx.t.id), obs.EvSend, "msg=%s targets=%d", m.Type, len(targets))
	ok := make([]fanResult, 0, len(targets))
	for _, r := range tx.co.round(targets, func(fanTarget) *wire.Msg { return m }) {
		if r.err != nil {
			tx.dropWorker(r.site, r.conn)
			continue
		}
		trace.Recordf(int64(tx.t.id), obs.EvAck, "site=%d resp=%s", r.site, r.resp.Type)
		ok = append(ok, r)
	}
	return ok
}

// Commit executes the configured protocol's phase plan (§4.3, Table 4.2)
// and returns the commit time on success. A vote of NO or a protocol
// failure aborts the transaction and returns an error.
func (tx *Txn) Commit() (tuple.Timestamp, error) {
	commitStart := time.Now()
	co := tx.co
	t := tx.t
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return 0, fmt.Errorf("coord: transaction %d already finished", t.id)
	}
	t.sealed = true // the join replay must not widen the worker set past this snapshot
	var workers []fanTarget
	dropped := map[catalog.SiteID]bool{}
	for s, c := range t.workers {
		// §4.3.5: a worker that crashed before commit processing began is
		// dropped and the transaction commits with K-1 safety; the crashed
		// worker recovers the committed data when it comes back.
		if co.SiteDown(s) {
			dropped[s] = true
			delete(t.workers, s)
			c.Close()
			continue
		}
		workers = append(workers, fanTarget{s, c})
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].site < workers[j].site })
	// Safety check for the K-1 path: every queued update must still have a
	// live recipient, or its effects would be lost by committing.
	if len(dropped) > 0 {
		for _, q := range t.queue {
			covered := false
			for s := range q.sentTo {
				if !dropped[s] {
					covered = true
					break
				}
			}
			if !covered {
				t.mu.Unlock()
				tx.abortAll()
				return 0, fmt.Errorf("coord: transaction %d aborted: an update survives only on crashed site(s)", t.id)
			}
		}
	}
	t.mu.Unlock()

	if len(workers) == 0 {
		// Nothing written anywhere (or everything written was covered only
		// by read-only work): trivially committed if no updates are queued.
		t.mu.Lock()
		hasUpdates := len(t.queue) > 0
		t.mu.Unlock()
		if hasUpdates {
			tx.abortAll()
			return 0, fmt.Errorf("coord: transaction %d aborted: no live workers", t.id)
		}
		tx.finish()
		return 0, nil
	}

	plan := co.plan
	var participants []int32
	if plan.NeedsParticipants() {
		for _, w := range workers {
			participants = append(participants, int32(w.site))
		}
	}

	// The commit timestamp is issued once the last voting round has
	// passed — only then is the transaction decided. Plans without a vote
	// round (early-vote 1PC) issue it before their first round.
	var ts tuple.Timestamp
	issued := false
	defer func() {
		if issued {
			co.Authority.Complete(ts)
		}
	}()

	prepared := workers
	for _, r := range plan.Rounds {
		if !r.Vote && !issued {
			ts = co.Authority.Issue()
			issued = true
		}
		if r.CoordForce {
			// The 2PC commit point: force-write COMMIT at the coordinator.
			lsn := co.log.Append(&wal.Record{Type: wal.RecCommit, Txn: t.id, CommitTS: ts})
			if err := co.log.Force(lsn, true); err != nil {
				tx.abortAll()
				return 0, err
			}
			co.trace.Recordf(int64(t.id), obs.EvForce, "rec=COMMIT lsn=%d", lsn)
		}
		if r.CommitBefore {
			co.recordOutcome(t.id, true, ts)
			co.trace.Recordf(int64(t.id), obs.EvCommitPoint, "ts=%d (before %s round)", ts, r.Msg)
		}
		m := &wire.Msg{Type: r.Msg, Txn: t.id, Sites: participants}
		if r.CarryTS {
			m.TS = ts
		}
		results := tx.sweepRound(prepared, m)
		if r.Vote {
			// §4.3.2 failure rule: no response ⇒ NO vote. Any NO — silent
			// or explicit — aborts.
			allYes := len(results) == len(prepared)
			next := make([]fanTarget, 0, len(results))
			for _, res := range results {
				if res.resp.Type == wire.MsgVote && res.resp.Yes() {
					next = append(next, fanTarget{res.site, res.conn})
				} else {
					allYes = false
				}
			}
			if !allYes {
				tx.abortAll()
				return 0, fmt.Errorf("coord: transaction %d aborted by vote", t.id)
			}
			prepared = next
		} else {
			// A dead worker will learn the outcome through recovery or
			// consensus; it leaves the round set but not the transaction's
			// fate.
			next := make([]fanTarget, 0, len(results))
			for _, res := range results {
				next = append(next, fanTarget{res.site, res.conn})
			}
			prepared = next
		}
		if r.CommitAfter {
			// Commit point reached (§4.3.3): the round barrier above means
			// every live worker acked before the outcome is recorded.
			co.recordOutcome(t.id, true, ts)
			co.trace.Recordf(int64(t.id), obs.EvCommitPoint, "ts=%d (after %s round)", ts, r.Msg)
		}
	}
	if co.log != nil {
		// W(END): a normal, unforced log write.
		co.log.Append(&wal.Record{Type: wal.RecEnd, Txn: t.id})
	}
	co.commits.Inc()
	co.commitNS.Observe(time.Since(commitStart).Nanoseconds())
	tx.finish()
	return ts, nil
}

// Abort aborts the transaction everywhere.
func (tx *Txn) Abort() error {
	tx.abortAll()
	return nil
}

// abortAll drives the abort path, uniform across plans: force ABORT at the
// coordinator log (plans with CoordLogs; 3PC coordinators never log,
// §4.3.3), send ABORT to every live worker connection of the transaction
// through the same sweepRound eviction path the commit rounds use, then
// write the unforced END.
func (tx *Txn) abortAll() {
	co := tx.co
	t := tx.t
	if co.log != nil {
		lsn := co.log.Append(&wal.Record{Type: wal.RecAbort, Txn: t.id})
		_ = co.log.Force(lsn, true)
		co.trace.Recordf(int64(t.id), obs.EvForce, "rec=ABORT lsn=%d", lsn)
	}
	co.trace.Record(int64(t.id), obs.EvAbort, "")
	co.recordOutcome(t.id, false, 0)
	t.mu.Lock()
	t.sealed = true // see Commit: no replay past the outcome-round snapshot
	targets := make([]fanTarget, 0, len(t.workers))
	for s, c := range t.workers {
		targets = append(targets, fanTarget{s, c})
	}
	t.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].site < targets[j].site })
	tx.sweepRound(targets, &wire.Msg{Type: wire.MsgAbort, Txn: t.id})
	if co.log != nil {
		co.log.Append(&wal.Record{Type: wal.RecEnd, Txn: t.id})
	}
	co.aborts.Inc()
	tx.finish()
}

// --- read-only queries ---------------------------------------------------

// QueryOptions configure a read-only distributed query.
type QueryOptions struct {
	// Historical runs the query as of AsOf without locks (§3.3). When
	// false the query reads current data with page read locks.
	Historical bool
	AsOf       tuple.Timestamp
	Pred       expr.Pred
	// PreferSite pins the read to one site when it holds the data
	// (load-balancing hook); 0 lets the planner choose.
	PreferSite catalog.SiteID
	// TupleAtATime asks the workers for the legacy per-tuple wire framing
	// instead of batch frames. Row content and order are identical; the
	// flag exists for the equivalence tests and the bench baseline.
	TupleAtATime bool
	// NoPushdown makes Aggregate ship every qualifying row and aggregate
	// at the coordinator instead of pushing partial aggregation down to the
	// workers. Results are identical; the flag exists for the equivalence
	// tests and the bench ablation (mirroring TupleAtATime).
	NoPushdown bool
}

// Scan runs a read-only query over one logical table and materialises the
// result. It is a thin collecting wrapper over ScanStream.
func (co *Coordinator) Scan(table int32, opt QueryOptions) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	err := co.ScanStream(table, opt, func(rows []tuple.Tuple) error {
		out = append(out, rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// slotStreamDepth bounds the batches buffered per in-flight slot stream;
// with fanoutLimit() streams at most, the coordinator holds
// O(limit × depth × batch) rows, independent of table size.
const slotStreamDepth = 4

// scanSlot is one site's assigned key range in a distributed scan.
type scanSlot struct {
	site catalog.SiteID
	rng  expr.KeyRange
}

// sortScanSlots orders slots into the deterministic emission order of
// ScanStream: serving site ascending, then key-range low ascending.
func sortScanSlots(slots []scanSlot) {
	sort.SliceStable(slots, func(i, j int) bool {
		if slots[i].site != slots[j].site {
			return slots[i].site < slots[j].site
		}
		return slots[i].rng.Lo < slots[j].rng.Lo
	})
}

// scanQuery carries a distributed read's invariant parameters.
type scanQuery struct {
	co           *Coordinator
	spec         *catalog.TableSpec
	id           txn.ID
	table        int32
	vis          exec.Visibility
	asOf         tuple.Timestamp
	locked       bool
	pred         expr.Pred
	tupleAtATime bool
	live         func(catalog.SiteID) bool
	regID        int64 // active-scan registry entry (routing epoch)
}

// release removes the read from the active-scan registry. Placement changes
// drain registered reads before letting a donor purge a moved range.
func (q *scanQuery) release() { q.co.deregisterScan(q.regID) }

// ScanStream runs a read-only query over one logical table, streaming the
// merged result to sink in batches. All sites of the read plan stream
// concurrently (so the query costs the slowest site, not the sum; §4.1),
// but rows reach sink in a deterministic order: slots sorted by (serving
// site, key-range low), each slot's rows in ascending key order (workers
// sort before streaming). Buffering is bounded by slotStreamDepth batches
// per in-flight slot, so the coordinator never materialises the table.
//
// A slot whose site dies mid-stream is failed over without restarting the
// query: rows already delivered stay delivered, and a coverage plan from
// the survivors re-reads only the remaining key range (resuming after the
// last emitted key), its sub-slots spliced in at the failed slot's
// position in ascending range order.
func (co *Coordinator) ScanStream(table int32, opt QueryOptions, sink func([]tuple.Tuple) error) error {
	slots, q, err := co.planRead(table, opt)
	if err != nil {
		return err
	}
	defer q.release()
	return q.run(slots, sink, 0)
}

// planRead computes the slot assignment and invariant parameters shared by
// every distributed read (ScanStream and Aggregate).
func (co *Coordinator) planRead(table int32, opt QueryOptions) ([]scanSlot, *scanQuery, error) {
	// Register against the routing epoch before reading the catalog: any
	// placement change landing after this point carries a higher version and
	// drains on this read before a donor range may be purged.
	regID := co.registerScan(co.cfg.Catalog.PlacementVersion())
	spec, ok := co.cfg.Catalog.Table(table)
	if !ok {
		co.deregisterScan(regID)
		return nil, nil, fmt.Errorf("coord: unknown table %d", table)
	}
	vis := exec.Current
	locked := true
	// Every read resolves a concrete timestamp before planning. Historical
	// reads use it as the snapshot time. Current reads keep TS semantics
	// unchanged at the executor (locked, latest-state) but carry the
	// plan-time HWM as the read's *start timestamp*: a recovering segment
	// in locked catch-up whose drained horizon covers that timestamp holds
	// contents equal to a healthy replica's (the catch-up locks freeze
	// commits to the table), so it may serve the read mid-recovery.
	asOf := co.Authority.HWM()
	if opt.Historical {
		vis = exec.Historical
		locked = false
		if opt.AsOf != 0 {
			asOf = opt.AsOf
		}
	}
	// Visibility and asOf resolve before the candidate set is built:
	// readability is per *segment*, not per site, and depends on the
	// concrete timestamp (a recovering segment serves the read once its
	// copied-through watermark covers it). The per-site predicate remains
	// the query's failover filter (q.live), so a mid-stream replan can land
	// on a recovering site's readable objects too.
	live := func(s catalog.SiteID) bool {
		return co.objectReadableFor(table, s, opt.Historical, asOf)
	}
	// The plan covers only the key range the predicate can match, so sites
	// whose replica ranges miss it are never contacted and every slot
	// declares (KeyLo/KeyHi) just the part of it that site serves. A
	// contradictory predicate has an empty target: CoverTarget plans no
	// slot and the read returns empty without an RPC.
	target := opt.Pred.KeyRange(spec.Desc)
	cands := co.readCandidates(table, opt.Historical, asOf)
	srcs, err := catalog.CoverTarget(target, cands)
	if err != nil {
		co.deregisterScan(regID)
		return nil, nil, fmt.Errorf("coord: table %d: %w", table, err)
	}
	if target != expr.FullKeyRange() {
		if all, err := catalog.CoverTarget(expr.FullKeyRange(), cands); err == nil && len(all) > len(srcs) {
			co.slotsPruned.Add(int64(len(all) - len(srcs)))
		}
	}
	if opt.PreferSite != 0 {
		var only []catalog.RangeCandidate
		for _, c := range cands {
			if c.Site == opt.PreferSite {
				only = append(only, c)
			}
		}
		if single, err := catalog.CoverTarget(target, only); err == nil {
			srcs = single
		}
	}
	slots := make([]scanSlot, len(srcs))
	for i, src := range srcs {
		slots[i] = scanSlot{site: src.Buddy, rng: src.Pred}
	}
	sortScanSlots(slots)
	q := &scanQuery{co: co, spec: spec, id: co.ids.Next(), table: table, vis: vis,
		asOf: asOf, locked: locked, pred: opt.Pred, tupleAtATime: opt.TupleAtATime,
		live: live, regID: regID}
	return slots, q, nil
}

// run streams the slots to sink in slot order. Readers launch strictly in
// emission order under the fan-out limit (so the streams the merger needs
// first always hold the semaphore slots), while the merger drains them in
// the same order; later streams park against their bounded channels. depth
// bounds cascading mid-stream failovers.
func (q *scanQuery) run(slots []scanSlot, sink func([]tuple.Tuple) error, depth int) error {
	if len(slots) == 0 {
		return nil
	}
	type slotStream struct {
		ch   chan []tuple.Tuple
		errc chan error
	}
	streams := make([]*slotStream, len(slots))
	for i := range streams {
		streams[i] = &slotStream{ch: make(chan []tuple.Tuple, slotStreamDepth), errc: make(chan error, 1)}
	}
	done := make(chan struct{})
	defer close(done)
	sem := make(chan struct{}, q.co.fanoutLimit())
	go func() {
		for i := range slots {
			select {
			case sem <- struct{}{}:
			case <-done:
				return
			}
			go func(i int) {
				defer func() { <-sem }()
				err := q.readSlot(slots[i], func(rows []tuple.Tuple) bool {
					select {
					case streams[i].ch <- rows:
						return true
					case <-done:
						return false
					}
				})
				close(streams[i].ch)
				streams[i].errc <- err
			}(i)
		}
	}()
	desc := q.spec.Desc
	for i, slot := range slots {
		st := streams[i]
		emitted := false
		var lastKey int64
		for rows := range st.ch {
			if len(rows) == 0 {
				continue
			}
			lastKey = rows[len(rows)-1].Key(desc)
			emitted = true
			if err := sink(rows); err != nil {
				return err
			}
		}
		err := <-st.errc
		if err == nil {
			continue
		}
		if depth >= 2 {
			return err
		}
		// Mid-stream failover: re-read only what the failed slot still owed.
		// Workers stream in key order, so everything at or below lastKey was
		// delivered; resume the range just past it.
		remaining := slot.rng
		if emitted {
			if lastKey == 1<<63-1 {
				continue // the unbounded range was fully delivered
			}
			remaining.Lo = lastKey + 1
		}
		if remaining.Empty() {
			continue
		}
		plan, perr := q.co.cfg.Catalog.RecoveryPlan(q.table, remaining, slot.site, q.live)
		if perr != nil {
			return err // no surviving coverage: report the read error
		}
		sub := make([]scanSlot, len(plan))
		for j, src := range plan {
			sub[j] = scanSlot{site: src.Buddy, rng: src.Pred}
		}
		// RecoveryPlan returns disjoint sources in ascending-Lo order; keep
		// that order so the failed range stays key-contiguous in the output.
		if err := q.run(sub, sink, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// readSlot streams one slot from its site, pushing row batches through
// push (which reports false when the merge has gone away). Batch frames
// are the default; with TupleAtATime the worker's per-tuple stream is
// re-batched client-side so the merge path is identical in both modes.
func (q *scanQuery) readSlot(slot scanSlot, push func([]tuple.Tuple) bool) error {
	co := q.co
	p, err := co.pool(slot.site)
	if err != nil {
		return err
	}
	pred := q.pred
	m := &wire.Msg{
		Type: wire.MsgScan, Txn: q.id, Table: q.table,
		Vis: uint8(q.vis), TS: q.asOf, Pred: pred.Terms,
	}
	if slot.rng != expr.FullKeyRange() {
		pred = pred.And(slot.rng.Pred(q.spec.Desc).Terms...)
		m.Pred = pred.Terms
		// Declare the touched key range so the worker's recovery gate checks
		// only the segments this slot actually reads — the slot may exist
		// precisely because those segments recovered ahead of their table.
		m.KeyLo, m.KeyHi = slot.rng.Lo, slot.rng.Hi
	}
	if q.locked {
		m.Flags |= wire.FlagYes
	}
	if q.tupleAtATime {
		m.Flags |= wire.FlagTupleAtATime
	}
	// The send plus first receive is the borrowed conn's first exchange:
	// a transport error there on a pooled conn retries once on a fresh
	// dial (stale idle conn) before declaring the site down.
	var first *wire.Msg
	conn, err := co.borrow(p, func(c *comm.Conn) error {
		err := c.Send(m)
		co.msgsSent.Add(1) // counted per attempted send (see Counters)
		if err != nil {
			return err
		}
		first, err = c.Recv()
		return err
	})
	if err != nil {
		co.MarkDown(slot.site)
		return err
	}
	desc := q.spec.Desc
	width := desc.Width()
	var pending []tuple.Tuple // re-batched legacy per-tuple rows
	flushPending := func() bool {
		if len(pending) == 0 {
			return true
		}
		rows := pending
		pending = nil
		return push(rows)
	}
	for resp := first; ; {
		end := false
		switch resp.Type {
		case wire.MsgErr:
			p.Put(conn)
			return resp.Err()
		case wire.MsgScanEnd:
			end = true
		case wire.MsgTupleBatch:
			n, err := wire.CheckBatch(resp, width)
			if err != nil {
				conn.Close()
				return err
			}
			b := tuple.NewBatch(n)
			if err := b.DecodeBatch(desc, resp.Raw); err != nil {
				conn.Close()
				return err
			}
			co.scanRows.Add(int64(n))
			co.scanBatches.Inc()
			if !push(b.Rows()) {
				conn.Close() // merge abandoned; don't recycle mid-stream
				return nil
			}
		case wire.MsgTuple:
			pending = append(pending, wire.ToTuple(resp.Tuple))
			co.scanRows.Inc()
			if len(pending) >= wire.BatchTargetRows {
				if !flushPending() {
					conn.Close()
					return nil
				}
			}
		default:
			conn.Close()
			return fmt.Errorf("coord: unexpected %v in scan stream", resp.Type)
		}
		if end {
			break
		}
		resp, err = conn.Recv()
		if err != nil {
			co.MarkDown(slot.site)
			conn.Close()
			return err
		}
	}
	if !flushPending() {
		conn.Close()
		return nil
	}
	if q.locked {
		// Release the read transaction's locks (§4.3: "for read
		// transactions, the coordinator merely needs to notify the workers
		// to release any system resources and locks").
		_, err := conn.Call(&wire.Msg{Type: wire.MsgEndRead, Txn: q.id})
		co.msgsSent.Add(1) // counted per attempted send (see Counters)
		if err != nil {
			co.MarkDown(slot.site)
			conn.Close()
			return nil
		}
	}
	p.Put(conn)
	return nil
}

// CreateTable creates the table's replicas on their sites per the catalog.
func (co *Coordinator) CreateTable(spec *catalog.TableSpec, replicas ...catalog.Replica) error {
	if err := co.cfg.Catalog.AddTable(spec, replicas...); err != nil {
		return err
	}
	// A site may hold several replica ranges of the same table (a
	// partitioned placement); it needs the physical table exactly once.
	created := make(map[catalog.SiteID]bool, len(replicas))
	for _, r := range replicas {
		if created[r.Site] {
			continue
		}
		created[r.Site] = true
		p, err := co.pool(r.Site)
		if err != nil {
			return err
		}
		segPages := r.SegPages
		if segPages == 0 {
			segPages = spec.SegPages
		}
		var resp *wire.Msg
		conn, err := co.borrow(p, func(c *comm.Conn) error {
			rr, err := c.Call(&wire.Msg{
				Type: wire.MsgCreateTable, Table: spec.ID, Desc: spec.Desc, SegPages: segPages,
			})
			co.msgsSent.Add(1)
			resp = rr
			return err
		})
		if err != nil {
			return err
		}
		if resp.Type != wire.MsgOK {
			p.Put(conn)
			return fmt.Errorf("coord: create table on site %d: %s", r.Site, resp.Text)
		}
		p.Put(conn)
	}
	return nil
}
