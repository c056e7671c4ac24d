package worker

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"harbor/internal/comm"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/lockmgr"
	"harbor/internal/obs"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
)

// serveConn is the per-connection request loop (§6.1.6: each connection
// manages a single transaction at a time but is recycled across
// transactions). When the connection drops with transactions of its own
// still in flight, the §4.3 / §5.5 failure logic runs for each.
func (s *Site) serveConn(c *comm.Conn) {
	owned := map[txn.ID]bool{}
	defer func() {
		for id := range owned {
			s.handleOrphan(id)
		}
	}()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		if s.crashed.Load() {
			return
		}
		if d := s.msgDelay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		resp := s.dispatch(c, m, owned)
		if resp == nil {
			continue // streaming responses already sent
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

func okMsg() *wire.Msg { return &wire.Msg{Type: wire.MsgOK} }
func errMsg(err error) *wire.Msg {
	return &wire.Msg{Type: wire.MsgErr, Text: err.Error()}
}

// dataErr is errMsg for the tuple data path: it additionally routes the
// error past the torn-page watchdog, which kicks off a background
// repair-from-buddy the first time a read trips ErrPageCorrupt — and marks
// the outgoing MsgErr (FlagYes) so the peer sees a typed
// wire.ErrRemoteCorrupt: a retryable condition (this site is already
// repairing itself), not a fatal answer.
func (s *Site) dataErr(err error) *wire.Msg {
	s.noteCorrupt(err)
	m := errMsg(err)
	if errors.Is(err, storage.ErrPageCorrupt) {
		m.Flags |= wire.FlagYes
	}
	return m
}

// staleMsg is the typed refusal for a scan whose declared range was purged
// here after a segment move: MsgErr with FlagKnown, which the peer decodes
// as wire.ErrPlacementStale and replans against the current catalog.
func (s *Site) staleMsg(table int32, rng expr.KeyRange) *wire.Msg {
	return &wire.Msg{Type: wire.MsgErr, Flags: wire.FlagKnown,
		Text: fmt.Sprintf("site %d no longer holds [%d,%d) of table %d (segment moved)",
			s.Cfg.Site, rng.Lo, rng.Hi, table)}
}

// noteTableRead bumps the per-table read-hotness counter. The recovery
// driver reads these to order its per-object queue: objects queries
// actually touch recover first.
func (s *Site) noteTableRead(table int32) {
	s.reg.Counter(obs.Name("worker.table.reads", "table", strconv.Itoa(int(table)))).Add(1)
}

// scanRange extracts the key range a scan request declares it will touch
// (KeyLo/KeyHi on the message). An unset range — both zero, which as a real
// range would be empty — means the caller predates range-aware routing or
// genuinely scans everything: the full range, the conservative reading.
func scanRange(m *wire.Msg) expr.KeyRange {
	if m.KeyLo == 0 && m.KeyHi == 0 {
		return expr.FullKeyRange()
	}
	return expr.KeyRange{Lo: m.KeyLo, Hi: m.KeyHi}
}

// objectReadable decides whether a scan may be served given the recovery
// states of the segments its key range intersects — segments the scan never
// touches cannot affect its result and are ignored, which is the whole
// point of segment-granular states: a recovered hot range serves while the
// rest of its table still copies.
//
// Per intersecting segment: Ready always serves. A recovering segment can
// serve a historical read asOf A once its copy horizon covers A: after the
// Phase 1 rewind the object IS the snapshot at its checkpoint, and every
// tuple Phase 2/3 adds carries an insertion (or deletion) time above the
// durably-copied horizon — invisible at A — so contents at or below
// copiedThrough are byte-identical to a healthy replica's. A segment in
// Catchup whose locked copy has drained (copiedThrough advanced to the
// drain horizon) additionally serves *current* reads whose coordinator-
// assigned start timestamp is ≤ that horizon: the buddy table locks freeze
// commits for the rest of Phase 3, so the drained contents equal a healthy
// replica's at any such timestamp. Anything else is refused; any
// not-yet-Ready intersecting segment (served or not) fires the fault-in
// hook with the scan's range so the recovery driver pulls that segment
// forward.
func (s *Site) objectReadable(table int32, vis exec.Visibility, asOf tuple.Timestamp, rng expr.KeyRange) error {
	var refused *SegmentStatus
	recovering := false
	segs := s.ObjectSegments(table)
	for i := range segs {
		seg := &segs[i]
		if seg.Range.Intersect(rng).Empty() {
			continue
		}
		if seg.State == ObjReady {
			continue
		}
		recovering = true
		covered := asOf > 0 && asOf <= seg.CopiedThrough
		servable := covered &&
			((vis == exec.Historical && (seg.State == ObjHistoricalCopy || seg.State == ObjCatchup)) ||
				(vis == exec.Current && seg.State == ObjCatchup))
		if !servable && refused == nil {
			refused = seg
		}
	}
	if recovering {
		s.requestFaultIn(table, rng)
	}
	if refused != nil {
		return fmt.Errorf("worker: site %d object %d segment [%d,%d) is recovering (state %v, copied through %d); cannot serve read asOf %d",
			s.Cfg.Site, table, refused.Range.Lo, refused.Range.Hi, refused.State, refused.CopiedThrough, asOf)
	}
	return nil
}

// phaseHandlers is the worker half of the commit-protocol engine: the
// per-phase handlers keyed by wire message kind. Which of these a worker
// ever receives is decided entirely by the coordinator's phase plan; the
// handlers themselves take their force decisions from the same plan
// (Site.plan), so no protocol conditionals appear on this path. A new
// protocol that introduces a new wire message adds exactly one entry here.
var phaseHandlers = map[wire.Type]func(*Site, *wire.Msg, map[txn.ID]bool) *wire.Msg{
	wire.MsgPrepare:         (*Site).handlePrepare,
	wire.MsgPrepareToCommit: (*Site).handlePrepareToCommit,
	wire.MsgCommit:          (*Site).handleCommit,
	wire.MsgCommitFast:      (*Site).handleCommitFast,
	wire.MsgAbort:           (*Site).handleAbort,
}

// dispatch handles one request, returning the response (nil if already
// streamed).
func (s *Site) dispatch(c *comm.Conn, m *wire.Msg, owned map[txn.ID]bool) *wire.Msg {
	if h, ok := phaseHandlers[m.Type]; ok {
		return h(s, m, owned)
	}
	switch m.Type {
	case wire.MsgPing:
		// FlagYes advertises whole-site readiness as a recovery source:
		// every object Ready. The Objs list carries the finer per-object
		// states so peers (coordinator routing, buddy probes) can use a
		// Ready object on a site whose other objects still recover.
		out := okMsg()
		if !s.NeedsRecovery() {
			out.Flags |= wire.FlagYes
		}
		out.Objs = s.ObjectStates()
		return out

	case wire.MsgCrash:
		go s.Crash()
		return okMsg()

	case wire.MsgCheckpointNow:
		if err := s.CheckpointNow(); err != nil {
			return errMsg(err)
		}
		return okMsg()

	case wire.MsgCreateTable:
		if m.Desc == nil {
			return errMsg(fmt.Errorf("worker: create table without schema"))
		}
		if err := s.CreateTable(m.Table, m.Desc, m.SegPages); err != nil {
			return errMsg(err)
		}
		return okMsg()

	case wire.MsgBegin:
		s.getTxn(m.Txn, true)
		owned[m.Txn] = true
		s.trace.Record(int64(m.Txn), obs.EvBegin, "")
		return okMsg()

	case wire.MsgInsert:
		w := s.getTxn(m.Txn, true)
		owned[m.Txn] = true
		w.didWrite = true
		tp := wire.ToTuple(m.Tuple)
		if tb, err := s.Mgr.Get(m.Table); err == nil {
			if err := s.objectWritable(m.Table, tp.Key(tb.Heap.Desc())); err != nil {
				return errMsg(err)
			}
		}
		if _, err := s.Store.InsertTuple(lockmgr.TxnID(m.Txn), m.Table, tp); err != nil {
			return s.dataErr(err)
		}
		return okMsg()

	case wire.MsgDeleteKey:
		w := s.getTxn(m.Txn, true)
		owned[m.Txn] = true
		w.didWrite = true
		if err := s.objectWritable(m.Table, m.Key); err != nil {
			return errMsg(err)
		}
		found, err := exec.DeleteByKey(s.Store, lockmgr.TxnID(m.Txn), m.Table, m.Key)
		if err != nil {
			return s.dataErr(err)
		}
		out := okMsg()
		if found {
			out.Count = 1
		}
		return out

	case wire.MsgUpdateKey:
		w := s.getTxn(m.Txn, true)
		owned[m.Txn] = true
		w.didWrite = true
		if err := s.objectWritable(m.Table, m.Key); err != nil {
			return errMsg(err)
		}
		repl := wire.ToTuple(m.Tuple)
		found, err := exec.UpdateByKey(s.Store, lockmgr.TxnID(m.Txn), m.Table, m.Key,
			func(old tuple.Tuple) tuple.Tuple {
				out := old.Clone()
				copy(out.Values[tuple.FieldFirstUser:], repl.Values[tuple.FieldFirstUser:])
				return out
			})
		if err != nil {
			return s.dataErr(err)
		}
		out := okMsg()
		if found {
			out.Count = 1
		}
		return out

	case wire.MsgSimWork:
		s.getTxn(m.Txn, true)
		owned[m.Txn] = true
		simulateWork(m.Cycles)
		return okMsg()

	case wire.MsgScan:
		s.noteTableRead(m.Table)
		if rng := scanRange(m); s.rangePurged(m.Table, rng) {
			return s.staleMsg(m.Table, rng)
		}
		if err := s.objectReadable(m.Table, exec.Visibility(m.Vis), tuple.Timestamp(m.TS), scanRange(m)); err != nil {
			return errMsg(err)
		}
		s.getTxn(m.Txn, true)
		owned[m.Txn] = true
		if err := s.streamScan(c, m); err != nil {
			return s.dataErr(err)
		}
		return nil

	case wire.MsgRecoveryScan:
		// An object that rejoined from a crash may be missing commits it
		// once acknowledged (crash losses, lying fsyncs) while still counted
		// in the coordinator's update set. Serving as a recovery source
		// before its own recovery completes would silently seed that
		// staleness into another replica — refuse loudly instead. The check
		// is per object: a Ready object on a still-recovering site is a
		// legitimate source (its catch-up ran to completion).
		s.noteTableRead(m.Table)
		if rng := scanRange(m); s.rangePurged(m.Table, rng) {
			return s.staleMsg(m.Table, rng)
		}
		for _, seg := range s.ObjectSegments(m.Table) {
			if seg.Range.Intersect(scanRange(m)).Empty() || seg.State == ObjReady {
				continue
			}
			s.requestFaultIn(m.Table, scanRange(m))
			return errMsg(fmt.Errorf("worker: site %d object %d segment [%d,%d) rejoined from a crash and has not completed recovery (state %v); not a valid recovery source",
				s.Cfg.Site, m.Table, seg.Range.Lo, seg.Range.Hi, seg.State))
		}
		if err := s.streamRecoveryScan(c, m); err != nil {
			return s.dataErr(err)
		}
		return nil

	case wire.MsgEndRead:
		s.Locks.ReleaseAll(lockmgr.TxnID(m.Txn))
		s.forget(m.Txn)
		delete(owned, m.Txn)
		return okMsg()

	case wire.MsgLockTable:
		// Recovery Phase 3 table read lock (§5.4.1). The lock is owned by
		// the recovering site's recovery transaction; if this connection
		// dies the deferred orphan handling releases it (§5.5.1 override).
		owned[m.Txn] = true
		s.getTxn(m.Txn, true)
		if err := s.Locks.Acquire(lockmgr.TxnID(m.Txn), lockmgr.TableTarget(m.Table), lockmgr.S); err != nil {
			return errMsg(err)
		}
		return okMsg()

	case wire.MsgUnlockTable:
		s.Locks.Release(lockmgr.TxnID(m.Txn), lockmgr.TableTarget(m.Table))
		return okMsg()

	case wire.MsgPurgeRange:
		// Donor-side cleanup after a segment moved away: physically delete
		// the range, then leave a purge note so scans planned against the
		// old placement are refused as placement-stale rather than served
		// from the hole.
		rng := scanRange(m)
		n, err := s.PurgeRange(m.Table, rng)
		if err != nil {
			return s.dataErr(err)
		}
		s.MarkRangePurged(m.Table, rng)
		out := okMsg()
		out.Count = int64(n)
		return out

	case wire.MsgVacuum:
		// §3.3's configurable-history background process, triggered
		// remotely: purge versions deleted at or before the horizon.
		var removed int
		var err error
		if m.Table == 0 {
			removed, err = s.Store.VacuumAll(m.TS)
		} else {
			removed, err = s.Store.VacuumBefore(m.Table, m.TS)
		}
		if err != nil {
			return errMsg(err)
		}
		out := okMsg()
		out.Count = int64(removed)
		return out

	case wire.MsgTableMeta:
		tb, err := s.Mgr.Get(m.Table)
		if err != nil {
			return errMsg(err)
		}
		// Count = segments, Key = indexed record ids, TS = last checkpoint.
		ckpt, _ := s.LastCheckpoint()
		return &wire.Msg{
			Type:  wire.MsgOK,
			Count: int64(tb.Heap.NumSegments()),
			Key:   int64(tb.Index.Len()),
			TS:    ckpt,
		}

	case wire.MsgQueryTxnState:
		st, ts, ok := s.TxnState(m.Txn)
		if !ok {
			// Unknown transaction after a crash: report aborted (the
			// worker would vote NO anyway, §4.3.2).
			return &wire.Msg{Type: wire.MsgTxnState, Flags: uint8(txn.StateAborted)}
		}
		return &wire.Msg{Type: wire.MsgTxnState, Flags: uint8(st), TS: ts}

	default:
		return errMsg(fmt.Errorf("worker: unexpected message %v", m.Type))
	}
}

// handlePrepare is the first commit-protocol phase (§4.3): check
// constraints, (log per protocol), vote.
func (s *Site) handlePrepare(m *wire.Msg, owned map[txn.ID]bool) *wire.Msg {
	w := s.getTxn(m.Txn, false)
	if w == nil {
		// Vote NO for unknown transactions (post-crash rule, §4.3.2).
		s.trace.Record(int64(m.Txn), obs.EvVote, "no (unknown txn)")
		return &wire.Msg{Type: wire.MsgVote}
	}
	owned[m.Txn] = true
	s.trace.Recordf(int64(m.Txn), obs.EvPrepare, "msg=%s", m.Type)
	if w.state == txn.StatePreparedToCommit || w.state == txn.StateCommitted {
		// Duplicate from a backup coordinator replaying the protocol.
		return &wire.Msg{Type: wire.MsgVote, Flags: wire.FlagYes}
	}
	if s.failNextPrepare.CompareAndSwap(true, false) {
		s.setState(w, txn.StatePreparedNo)
		// A NO-voting worker rolls back immediately (Figure 4-2/4-3).
		_ = s.Store.Abort(lockmgr.TxnID(m.Txn))
		s.setState(w, txn.StateAborted)
		s.aborts.Inc()
		s.trace.Record(int64(m.Txn), obs.EvVote, "no (injected failure)")
		return &wire.Msg{Type: wire.MsgVote}
	}
	force := s.plan.WorkerForce(m.Type)
	if err := s.Store.Prepare(lockmgr.TxnID(m.Txn), force); err != nil {
		return errMsg(err)
	}
	if force {
		s.trace.Record(int64(m.Txn), obs.EvForce, "rec=PREPARED")
	}
	if len(m.Sites) > 0 {
		w.participants = append([]int32(nil), m.Sites...)
	}
	s.ts.prepared(m.Txn)
	s.setState(w, txn.StatePreparedYes)
	s.trace.Record(int64(m.Txn), obs.EvVote, "yes")
	return &wire.Msg{Type: wire.MsgVote, Flags: wire.FlagYes}
}

// handlePrepareToCommit is 3PC's second phase: record the commit time.
func (s *Site) handlePrepareToCommit(m *wire.Msg, _ map[txn.ID]bool) *wire.Msg {
	w := s.getTxn(m.Txn, false)
	if w == nil {
		return errMsg(errUnknownTxn)
	}
	if w.state == txn.StatePreparedToCommit || w.state == txn.StateCommitted {
		return okMsg() // duplicate
	}
	force := s.plan.WorkerForce(m.Type)
	if err := s.Store.PrepareToCommit(lockmgr.TxnID(m.Txn), m.TS, force); err != nil {
		return errMsg(err)
	}
	w.commitTS = m.TS
	s.ts.commitTSKnown(m.Txn, m.TS)
	s.setState(w, txn.StatePreparedToCommit)
	s.trace.Recordf(int64(m.Txn), obs.EvPrepare, "prepared-to-commit ts=%d force=%v", m.TS, force)
	return okMsg()
}

// handleCommit applies the commit: stamp timestamps, log COMMIT when the
// protocol keeps a worker log (forced under traditional 2PC and canonical
// 3PC), release locks, ack.
func (s *Site) handleCommit(m *wire.Msg, owned map[txn.ID]bool) *wire.Msg {
	w := s.getTxn(m.Txn, false)
	if w == nil {
		return errMsg(errUnknownTxn)
	}
	if w.state == txn.StateCommitted {
		return okMsg() // duplicate (consensus replay)
	}
	if w.state == txn.StateAborted {
		return errMsg(fmt.Errorf("worker: commit of aborted txn %d", m.Txn))
	}
	ts := m.TS
	if ts == 0 {
		ts = w.commitTS // consensus replay of the third phase
	}
	s.ts.commitTSKnown(m.Txn, ts)
	logIt := s.plan.WorkerForce(wire.MsgCommit)
	if err := s.Store.Commit(lockmgr.TxnID(m.Txn), ts, logIt, logIt); err != nil {
		return errMsg(err)
	}
	w.commitTS = ts
	s.ts.applied(m.Txn, ts)
	s.setState(w, txn.StateCommitted)
	s.commits.Inc()
	if logIt {
		s.trace.Record(int64(m.Txn), obs.EvForce, "rec=COMMIT")
	}
	s.trace.Recordf(int64(m.Txn), obs.EvCommitPoint, "ts=%d", ts)
	delete(owned, m.Txn)
	s.forgetLater(m.Txn)
	return okMsg()
}

// handleCommitFast is the early-vote 1PC fast path (Plan.EarlyVote): the
// YES vote was implicit in the per-operation acks, so a single round both
// fixes the commit time and applies it. A pending transaction is promoted
// straight through prepared(YES) so the timestamp tracker takes its
// checkpoint barrier before the commit stamps land.
func (s *Site) handleCommitFast(m *wire.Msg, owned map[txn.ID]bool) *wire.Msg {
	w := s.getTxn(m.Txn, false)
	if w == nil {
		return errMsg(errUnknownTxn)
	}
	if w.state == txn.StatePending {
		s.ts.prepared(m.Txn)
		s.setState(w, txn.StatePreparedYes)
	}
	return s.handleCommit(m, owned)
}

// handleAbort rolls back.
func (s *Site) handleAbort(m *wire.Msg, owned map[txn.ID]bool) *wire.Msg {
	w := s.getTxn(m.Txn, false)
	if w == nil {
		return okMsg() // unknown ⇒ nothing to do (presumed abort)
	}
	if w.state == txn.StateAborted {
		return okMsg()
	}
	if w.state == txn.StateCommitted {
		return errMsg(fmt.Errorf("worker: abort of committed txn %d", m.Txn))
	}
	if err := s.Store.Abort(lockmgr.TxnID(m.Txn)); err != nil {
		return errMsg(err)
	}
	s.setState(w, txn.StateAborted)
	s.aborts.Inc()
	s.trace.Record(int64(m.Txn), obs.EvAbort, "rolled back")
	delete(owned, m.Txn)
	s.forgetLater(m.Txn)
	return okMsg()
}

// forgetLater drops bookkeeping for a terminal transaction. State is kept
// briefly so duplicate consensus messages and outcome queries can still be
// answered; a small retention window suffices because peers retry.
func (s *Site) forgetLater(id txn.ID) {
	// Keep terminal state; it is cheap (a few words per txn) and the
	// benches reset sites between runs. Only the version-layer state and
	// locks are gone. The ts tracker entry is cleared.
	s.ts.resolved(id)
}

// frameStream packs tuples into MsgTupleBatch frames, flushing a frame when
// it reaches wire.BatchTargetRows rows or wire.BatchTargetBytes payload
// bytes. The terminating MsgScanEnd carries the total row count.
type frameStream struct {
	c        *comm.Conn
	desc     *tuple.Desc
	keysOnly bool
	rowsCap  int // rows per frame under the flush policy
	b        *tuple.Batch
	buf      []byte
	count    int64
	site     *Site
}

func (s *Site) newFrameStream(c *comm.Conn, desc *tuple.Desc, keysOnly bool) *frameStream {
	stride := desc.Width()
	if keysOnly {
		stride = wire.KeysOnlyStride
	}
	rowsCap := wire.BatchTargetBytes / stride
	if rowsCap > wire.BatchTargetRows {
		rowsCap = wire.BatchTargetRows
	}
	if rowsCap < 1 {
		rowsCap = 1
	}
	return &frameStream{c: c, desc: desc, keysOnly: keysOnly, rowsCap: rowsCap,
		b: tuple.NewBatch(rowsCap), site: s}
}

func (f *frameStream) add(t tuple.Tuple) error {
	f.b.Append(t)
	if f.b.Len() >= f.rowsCap {
		return f.flush()
	}
	return nil
}

func (f *frameStream) flush() error {
	n := f.b.Len()
	if n == 0 {
		return nil
	}
	f.buf = f.buf[:0]
	var flags uint8
	if f.keysOnly {
		flags = wire.FlagYes
		for _, t := range f.b.Rows() {
			f.buf = wire.AppendKeyRow(f.buf, t.Key(f.desc), int64(t.DelTS()))
		}
	} else {
		f.buf = f.b.EncodeTo(f.desc, f.buf)
	}
	f.count += int64(n)
	f.b.Reset()
	f.site.scanRows.Add(int64(n))
	f.site.scanFrames.Inc()
	f.site.scanBytes.Add(int64(len(f.buf)))
	f.site.batchFill.Observe(int64(n))
	// SendNoFlush serialises the frame into the connection's write buffer
	// before returning, so f.buf may be reused for the next frame.
	return f.c.SendNoFlush(&wire.Msg{Type: wire.MsgTupleBatch, Count: int64(n), Flags: flags, Raw: f.buf})
}

func (f *frameStream) end() error {
	if err := f.flush(); err != nil {
		return err
	}
	if err := f.c.SendNoFlush(&wire.Msg{Type: wire.MsgScanEnd, Count: f.count}); err != nil {
		return err
	}
	return f.c.Flush()
}

// streamScan executes a normal scan and streams the results in ascending
// key order (stable for duplicate keys), as MsgTupleBatch frames. The sort
// gives the coordinator deterministic per-site streams to merge and a
// resume point (the last emitted key) for mid-stream failover.
func (s *Site) streamScan(c *comm.Conn, m *wire.Msg) error {
	spec := exec.ScanSpec{
		Table:  m.Table,
		Vis:    exec.Visibility(m.Vis),
		AsOf:   m.TS,
		Locked: m.Flags&wire.FlagYes != 0,
		Txn:    lockmgr.TxnID(m.Txn),
		Pred:   wire.PredOf(m.Pred),
	}
	if len(m.Aggs) > 0 {
		return s.streamAggScan(c, m, spec)
	}
	scan := exec.NewSeqScan(s.Store, spec)
	rows, err := exec.Drain(scan)
	if err != nil {
		return err
	}
	desc := scan.Desc()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Key(desc) < rows[j].Key(desc) })
	fs := s.newFrameStream(c, desc, false)
	for _, t := range rows {
		if err := fs.add(t); err != nil {
			return err
		}
	}
	return fs.end()
}

// streamAggScan serves a scan request carrying a pushed-down aggregate
// spec: the qualifying rows are folded into per-group partial states
// locally (SeqScan → predicate → GroupTable) and only the O(groups) states
// travel, as MsgAggBatch frames in ascending group-key order, closed by a
// MsgScanEnd whose Count is the number of groups. The coordinator merges
// states from every site and finalises (Avg arrives here as its Sum+Count
// decomposition, so nothing is lost to per-site rounding).
func (s *Site) streamAggScan(c *comm.Conn, m *wire.Msg, spec exec.ScanSpec) error {
	tb, err := s.Mgr.Get(m.Table)
	if err != nil {
		return err
	}
	desc := tb.Heap.Desc()
	partial := make([]exec.AggSpec, len(m.Aggs))
	for i, a := range m.Aggs {
		if a.Field < 0 || int(a.Field) >= len(desc.Fields) {
			return fmt.Errorf("worker: agg field %d out of range", a.Field)
		}
		partial[i] = exec.AggSpec{Fn: exec.AggFunc(a.Fn), Field: int(a.Field)}
	}
	group := int(m.AggGroup)
	if group >= len(desc.Fields) {
		return fmt.Errorf("worker: agg group field %d out of range", group)
	}
	gt := exec.NewGroupTable(group, partial)
	scan := exec.NewSeqScan(s.Store, spec)
	if err := scan.Open(); err != nil {
		return err
	}
	defer scan.Close()
	b := tuple.NewBatch(exec.DefaultBatchRows)
	rowsIn := int64(0)
	for {
		if err := scan.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		rowsIn += int64(b.Len())
		gt.AddBatch(b)
	}
	s.aggRowsIn.Add(rowsIn)
	s.aggGroups.Add(int64(gt.Groups()))

	ncols := len(partial)
	if group >= 0 {
		ncols++
	}
	rowsCap := wire.BatchTargetBytes / wire.AggStride(ncols)
	if rowsCap > wire.BatchTargetRows {
		rowsCap = wire.BatchTargetRows
	}
	var buf []byte
	n := 0
	flush := func() error {
		if n == 0 {
			return nil
		}
		s.aggFrames.Inc()
		s.scanBytes.Add(int64(len(buf)))
		err := c.SendNoFlush(&wire.Msg{Type: wire.MsgAggBatch, Count: int64(n), Raw: buf})
		buf = buf[:0]
		n = 0
		return err
	}
	keys := gt.SortedKeys()
	for _, key := range keys {
		if group >= 0 {
			buf = wire.AppendAggRow(buf, key)
		}
		buf = wire.AppendAggRow(buf, gt.State(key)...)
		if n++; n >= rowsCap {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := c.SendNoFlush(&wire.Msg{Type: wire.MsgScanEnd, Count: int64(len(keys))}); err != nil {
		return err
	}
	return c.Flush()
}

// streamRecoveryScan serves a recovery buddy's side of the Chapter 5
// queries: a SEE DELETED (optionally HISTORICAL) scan with timestamp range
// predicates, pruned by the segment directory (§4.2), restricted to the
// recovery predicate's key range. With FlagYes only (key, deletion-time)
// pairs are shipped (the Phase 2/3 deletion queries).
func (s *Site) streamRecoveryScan(c *comm.Conn, m *wire.Msg) error {
	tb, err := s.Mgr.Get(m.Table)
	if err != nil {
		return err
	}
	desc := tb.Heap.Desc()
	var insLE, insGT, delGT *tuple.Timestamp
	pred := expr.KeyRange{Lo: m.KeyLo, Hi: m.KeyHi}.Pred(desc)
	if m.Flags&wire.FlagHasInsLE != 0 {
		v := m.InsLE
		insLE = &v
		pred = pred.And(expr.Term{Field: tuple.FieldInsTS, Op: expr.LE, Value: tuple.VInt(v)})
	}
	if m.Flags&wire.FlagHasInsGT != 0 {
		v := m.InsGT
		insGT = &v
		pred = pred.And(expr.Term{Field: tuple.FieldInsTS, Op: expr.GT, Value: tuple.VInt(v)})
		if m.TS == 0 {
			// Plain SEE DELETED (Phase 3): the special uncommitted value
			// would satisfy "insertion-time > hwm"; exclude it explicitly
			// (§5.4.1's "insertion_time != uncommitted").
			pred = pred.And(expr.Term{Field: tuple.FieldInsTS, Op: expr.NE, Value: tuple.VInt(tuple.Uncommitted)})
		}
	}
	if m.Flags&wire.FlagHasDelGT != 0 {
		v := m.DelGT
		delGT = &v
		pred = pred.And(expr.Term{Field: tuple.FieldDelTS, Op: expr.GT, Value: tuple.VInt(v)})
	}
	// SegmentPlan returns nil when the timestamp bounds prune every segment;
	// SegmentsOf represents that "scan nothing" plan directly.
	sel := exec.SegmentsOf(tb.Heap.SegmentPlan(insLE, insGT, delGT, false))
	if m.Flags&wire.FlagNoPrune != 0 {
		sel = exec.AllSegments() // ablation: scan every segment
	}
	keysOnly := m.Flags&wire.FlagYes != 0
	spec := exec.ScanSpec{
		Table:    m.Table,
		Vis:      exec.SeeDeleted,
		AsOf:     m.TS, // 0 ⇒ plain SEE DELETED (Phase 3); >0 ⇒ historical (Phase 2)
		Segments: sel,
		Pred:     pred,
	}
	scan := exec.NewSeqScan(s.Store, spec)
	if err := scan.Open(); err != nil {
		return err
	}
	defer scan.Close()
	fs := s.newFrameStream(c, desc, keysOnly)
	b := tuple.NewBatch(exec.DefaultBatchRows)
	for {
		if err := scan.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, t := range b.Rows() {
			if err := fs.add(t); err != nil {
				return err
			}
		}
	}
	return fs.end()
}

// simWorkSink defeats dead-code elimination of the simulated CPU loop. It
// is atomic because every connection goroutine publishes into it.
var simWorkSink atomic.Int64

// simulateWork spins for the given number of loop iterations, standing in
// for ETL processing, compression, materialized-view maintenance, or other
// per-transaction CPU work (§6.3.2).
func simulateWork(cycles int64) {
	var acc int64
	for i := int64(0); i < cycles; i++ {
		acc += i ^ (acc << 1)
	}
	simWorkSink.Store(acc)
}
