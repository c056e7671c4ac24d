package worker

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/vfs"
	"harbor/internal/wire"
)

// ObjState is the recovery state of one replica object (one table's local
// replica) — or, since states are now tracked per key-range segment, of one
// segment of it. Recovery used to be site-granular: a single needs-recovery
// bool withheld the ping ready flag and refused every read until the last
// object caught up. The per-object state machine replaced it —
//
//	NeedsRecovery → Scrubbing → HistoricalCopy → Catchup → Ready
//
// — and the per-segment table pushes the same machine one level down: each
// object's key range is carved into segments whose states and copy horizons
// advance independently, so a hot key range inside a big fact table becomes
// servable before the rest of its own table. The old whole-object behavior
// is the degenerate case of a single segment spanning the full key range.
type ObjState uint8

const (
	// ObjNeedsRecovery: the object belongs to a crashed incarnation and no
	// recovery phase has run; it may be missing acknowledged commits and
	// must not serve reads or seed another site's catch-up.
	ObjNeedsRecovery ObjState = iota + 1
	// ObjScrubbing: Phase 0 CRC scrub / torn-page repair in progress.
	ObjScrubbing
	// ObjHistoricalCopy: Phase 1 rewound the object to its checkpoint (so it
	// IS the historical snapshot at copiedThrough) and Phase 2 is copying
	// forward; historical reads asOf ≤ copiedThrough are byte-correct.
	ObjHistoricalCopy
	// ObjCatchup: Phase 3 locked catch-up; historical reads asOf ≤
	// copiedThrough remain legal, and once the locked copy has drained
	// (copiedThrough advanced to the drain horizon) current-visibility
	// reads whose start timestamp is ≤ copiedThrough are too: the buddy
	// table locks freeze commits, so the drained segment equals a healthy
	// replica's as of that horizon.
	ObjCatchup
	// ObjReady: fully caught up and online; serves everything, including
	// recovery scans for other sites.
	ObjReady
)

// objStateMax bounds the valid wire/persisted state codes; lines carrying
// anything outside [1, objStateMax] are from a future (or corrupt) format
// and are skipped rather than guessed at.
const objStateMax = ObjReady

// String renders the state.
func (st ObjState) String() string {
	switch st {
	case ObjNeedsRecovery:
		return "NeedsRecovery"
	case ObjScrubbing:
		return "Scrubbing"
	case ObjHistoricalCopy:
		return "HistoricalCopy"
	case ObjCatchup:
		return "Catchup"
	case ObjReady:
		return "Ready"
	default:
		return fmt.Sprintf("ObjState(%d)", uint8(st))
	}
}

// segStatus is one segment's entry in an object's recovery state table.
type segStatus struct {
	// rng is the half-open key range this segment covers. An object's
	// segments are sorted by Lo, mutually disjoint, and tile the full key
	// range — data outside the replica's catalog range is simply absent, so
	// extending the boundary segments to ±∞ costs nothing and spares every
	// reader a coverage case.
	rng   expr.KeyRange
	state ObjState
	// copiedThrough is the timestamp horizon through which this segment's
	// contents are a byte-correct historical snapshot. It starts at the
	// object's rewind checkpoint (after Phase 1 the object IS the snapshot
	// at the checkpoint) and advances only after each Phase 2/3 window is
	// durably flushed, so it never claims more than disk holds.
	copiedThrough tuple.Timestamp
}

// objStatus is one object's entry in the site's recovery state table: its
// segments, sorted by range Lo.
type objStatus struct {
	segs []segStatus
}

// SegmentStatus is the exported view of one segment's recovery state.
type SegmentStatus struct {
	Range         expr.KeyRange
	State         ObjState
	CopiedThrough tuple.Timestamp
}

// objStateFile persists the recovery state table across restarts. The file
// is advisory — the durable resume point of an interrupted recovery is the
// per-object checkpoint file (recoverObject re-reads it) — but persisting
// states lets a restarted incarnation report progress per object and seed
// recovery priority. One line per segment:
// "<table> <lo> <hi> <state> <copiedThrough>".
const objStateFile = "recovery_state"

// fullSeg returns the degenerate whole-object segment.
func fullSeg(st ObjState, ct tuple.Timestamp) segStatus {
	return segStatus{rng: expr.FullKeyRange(), state: st, copiedThrough: ct}
}

// seedObjectStates initializes the state table in Open. A clean prior
// shutdown means every object holds everything it ever acknowledged: all
// Ready. A dirty start demotes every segment to NeedsRecovery regardless of
// what the persisted file claims — any state buffered after the last flush
// died with the crash — keeping only the persisted segment boundaries and
// copiedThrough as hints.
func (s *Site) seedObjectStates(dirty bool, ids []int32) {
	s.objMu.Lock()
	s.startedDirty = dirty
	s.objs = make(map[int32]objStatus, len(ids))
	prior := s.readObjStateFile()
	for _, id := range ids {
		if !dirty {
			s.objs[id] = objStatus{segs: []segStatus{fullSeg(ObjReady, 0)}}
			continue
		}
		segs := prior[id].segs
		if len(segs) == 0 {
			segs = []segStatus{fullSeg(ObjNeedsRecovery, 0)}
		} else {
			for i := range segs {
				segs[i].state = ObjNeedsRecovery
			}
		}
		s.objs[id] = objStatus{segs: segs}
	}
	data := s.renderObjStatesLocked()
	s.objMu.Unlock()
	s.writeObjStates(data)
}

// readObjStateFile parses the persisted state table (empty map if absent).
// Tolerant by design: corrupt, truncated, unknown-state, and empty-range
// lines are skipped — the file is a hint, and a wholly garbage file simply
// degrades to the demote-all default.
func (s *Site) readObjStateFile() map[int32]objStatus {
	out := map[int32]objStatus{}
	data, err := vfs.ReadFile(filepath.Join(s.Cfg.Dir, objStateFile))
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 {
			continue
		}
		table, err1 := strconv.ParseInt(fields[0], 10, 32)
		lo, err2 := strconv.ParseInt(fields[1], 10, 64)
		hi, err3 := strconv.ParseInt(fields[2], 10, 64)
		st, err4 := strconv.ParseUint(fields[3], 10, 8)
		ct, err5 := strconv.ParseInt(fields[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			continue
		}
		if st < uint64(ObjNeedsRecovery) || st > uint64(objStateMax) {
			continue
		}
		rng := expr.KeyRange{Lo: lo, Hi: hi}
		if rng.Empty() {
			continue
		}
		o := out[int32(table)]
		o.segs = append(o.segs, segStatus{rng: rng, state: ObjState(st), copiedThrough: tuple.Timestamp(ct)})
		out[int32(table)] = o
	}
	for id, o := range out {
		sort.Slice(o.segs, func(i, j int) bool { return o.segs[i].rng.Lo < o.segs[j].rng.Lo })
		out[id] = o
	}
	return out
}

// renderObjStatesLocked serializes the state table. Callers hold objMu; the
// actual file write happens in writeObjStates AFTER objMu is released —
// ObjectState sits on every scan's serving path, and an fsync under the
// same mutex would stall reads behind each state transition.
func (s *Site) renderObjStatesLocked() []byte {
	ids := make([]int32, 0, len(s.objs))
	for id := range s.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		for _, seg := range s.objs[id].segs {
			fmt.Fprintf(&b, "%d %d %d %d %d\n", id, seg.rng.Lo, seg.rng.Hi,
				uint8(seg.state), int64(seg.copiedThrough))
		}
	}
	return []byte(b.String())
}

// writeObjStates persists one rendered state table atomically. Failures are
// swallowed: the file is an observability/priority hint, not the durability
// mechanism (per-object checkpoint files are). Writers racing here can land
// a snapshot slightly out of order; that only ever under-reports progress,
// which the dirty-restart demotion re-derives anyway.
func (s *Site) writeObjStates(data []byte) {
	s.objPersistMu.Lock()
	defer s.objPersistMu.Unlock()
	_ = vfs.WriteFileAtomic(filepath.Join(s.Cfg.Dir, objStateFile), data, 0o644)
}

// defaultSegLocked is the segment reported for objects the state table
// doesn't know (created before the state machine, or raced with
// CreateTable): Ready on a cleanly-started site, NeedsRecovery on one that
// rejoined from a crash.
func (s *Site) defaultSegLocked() segStatus {
	if s.startedDirty {
		return fullSeg(ObjNeedsRecovery, 0)
	}
	return fullSeg(ObjReady, 0)
}

// ObjectState returns one object's aggregate recovery state and copy
// horizon: the least-advanced state and the smallest copiedThrough over its
// segments. Callers that care about a specific key range use
// ObjectSegments; whole-object consumers (recovery scans, the rejoin
// decision) need the conservative reading.
func (s *Site) ObjectState(table int32) (ObjState, tuple.Timestamp) {
	s.objMu.Lock()
	defer s.objMu.Unlock()
	o, ok := s.objs[table]
	if !ok || len(o.segs) == 0 {
		d := s.defaultSegLocked()
		return d.state, d.copiedThrough
	}
	st, ct := o.segs[0].state, o.segs[0].copiedThrough
	for _, seg := range o.segs[1:] {
		if seg.state < st {
			st = seg.state
		}
		if seg.copiedThrough < ct {
			ct = seg.copiedThrough
		}
	}
	return st, ct
}

// ObjectSegments returns one object's per-segment states, sorted by range
// Lo. Unknown objects return the single default segment.
func (s *Site) ObjectSegments(table int32) []SegmentStatus {
	s.objMu.Lock()
	defer s.objMu.Unlock()
	o, ok := s.objs[table]
	if !ok || len(o.segs) == 0 {
		d := s.defaultSegLocked()
		return []SegmentStatus{{Range: d.rng, State: d.state, CopiedThrough: d.copiedThrough}}
	}
	out := make([]SegmentStatus, len(o.segs))
	for i, seg := range o.segs {
		out[i] = SegmentStatus{Range: seg.rng, State: seg.state, CopiedThrough: seg.copiedThrough}
	}
	return out
}

// SetObjectSegments installs an object's segment boundaries: the interior
// bounds split the full key range into len(bounds)+1 segments, all starting
// in the given state and horizon. Recovery calls this at demotion time with
// quantiles of the local key index; an empty bounds list installs the
// degenerate single full-range segment.
func (s *Site) SetObjectSegments(table int32, bounds []int64, st ObjState, copiedThrough tuple.Timestamp) {
	full := expr.FullKeyRange()
	segs := make([]segStatus, 0, len(bounds)+1)
	lo := full.Lo
	for _, b := range bounds {
		if b <= lo || b >= full.Hi {
			continue
		}
		segs = append(segs, segStatus{rng: expr.KeyRange{Lo: lo, Hi: b}, state: st, copiedThrough: copiedThrough})
		lo = b
	}
	segs = append(segs, segStatus{rng: expr.KeyRange{Lo: lo, Hi: full.Hi}, state: st, copiedThrough: copiedThrough})

	s.objMu.Lock()
	if s.objs == nil {
		s.objs = map[int32]objStatus{}
	}
	s.objs[table] = objStatus{segs: segs}
	data := s.renderObjStatesLocked()
	s.objMu.Unlock()
	s.writeObjStates(data)
}

// SetObjectState transitions every segment of one object uniformly and
// persists the table (installing the degenerate full-range segment if the
// object has none). Recovery (core.Recoverer) drives the transitions;
// copiedThrough must only be advanced after the corresponding window is
// durably flushed.
func (s *Site) SetObjectState(table int32, st ObjState, copiedThrough tuple.Timestamp) {
	s.objMu.Lock()
	if s.objs == nil {
		s.objs = map[int32]objStatus{}
	}
	o := s.objs[table]
	if len(o.segs) == 0 {
		o.segs = []segStatus{fullSeg(st, copiedThrough)}
	} else {
		for i := range o.segs {
			o.segs[i].state = st
			o.segs[i].copiedThrough = copiedThrough
		}
	}
	s.objs[table] = o
	data := s.renderObjStatesLocked()
	s.objMu.Unlock()
	s.writeObjStates(data)
}

// SetSegmentState transitions the segment whose range is exactly rng (as
// previously installed by SetObjectSegments and read back via
// ObjectSegments). A range that matches no segment exactly falls back to
// every segment it intersects — conservative, and only reachable if the
// boundaries changed underneath the caller.
func (s *Site) SetSegmentState(table int32, rng expr.KeyRange, st ObjState, copiedThrough tuple.Timestamp) {
	s.objMu.Lock()
	if s.objs == nil {
		s.objs = map[int32]objStatus{}
	}
	o := s.objs[table]
	if len(o.segs) == 0 {
		o.segs = []segStatus{{rng: rng, state: st, copiedThrough: copiedThrough}}
	} else {
		exact := false
		for i := range o.segs {
			if o.segs[i].rng == rng {
				o.segs[i].state = st
				o.segs[i].copiedThrough = copiedThrough
				exact = true
				break
			}
		}
		if !exact {
			for i := range o.segs {
				if !o.segs[i].rng.Intersect(rng).Empty() {
					o.segs[i].state = st
					o.segs[i].copiedThrough = copiedThrough
				}
			}
		}
	}
	s.objs[table] = o
	data := s.renderObjStatesLocked()
	s.objMu.Unlock()
	s.writeObjStates(data)
}

// CarveSegmentState splits an object's segment boundaries at rng's bounds
// so the range is tiled by whole segments, then transitions exactly those
// segments, leaving every segment outside rng untouched. Migration uses it:
// the incoming range demotes to NeedsRecovery and later promotes to Ready
// without perturbing ranges the site already serves. An object the table
// doesn't know starts from the site's default segment.
func (s *Site) CarveSegmentState(table int32, rng expr.KeyRange, st ObjState, copiedThrough tuple.Timestamp) {
	if rng.Empty() {
		return
	}
	full := expr.FullKeyRange()
	s.objMu.Lock()
	if s.objs == nil {
		s.objs = map[int32]objStatus{}
	}
	o := s.objs[table]
	if len(o.segs) == 0 {
		o.segs = []segStatus{s.defaultSegLocked()}
	}
	o.segs = splitSegAt(o.segs, rng.Lo)
	if rng.Hi != full.Hi {
		o.segs = splitSegAt(o.segs, rng.Hi)
	}
	// After the splits every segment is wholly inside or wholly outside rng.
	for i := range o.segs {
		if !o.segs[i].rng.Intersect(rng).Empty() {
			o.segs[i].state = st
			o.segs[i].copiedThrough = copiedThrough
		}
	}
	s.objs[table] = o
	data := s.renderObjStatesLocked()
	s.objMu.Unlock()
	s.writeObjStates(data)
}

// splitSegAt splits the segment containing bound into two at bound (no-op
// when bound already sits on a boundary, or falls outside every segment).
func splitSegAt(segs []segStatus, bound int64) []segStatus {
	for i, seg := range segs {
		if seg.rng.Lo < bound && seg.rng.Contains(bound) {
			left, right := seg, seg
			left.rng.Hi = bound
			right.rng.Lo = bound
			out := append(segs[:i:i], left, right)
			return append(out, segs[i+1:]...)
		}
	}
	return segs
}

// ObjectStates snapshots the state table in wire form, one entry per
// segment, for the ping reply's readiness list (sorted by table then range
// for determinism).
func (s *Site) ObjectStates() []wire.ObjReady {
	s.objMu.Lock()
	defer s.objMu.Unlock()
	out := make([]wire.ObjReady, 0, len(s.objs))
	for id, o := range s.objs {
		for _, seg := range o.segs {
			out = append(out, wire.ObjReady{
				Table:         id,
				State:         uint8(seg.state),
				CopiedThrough: int64(seg.copiedThrough),
				Lo:            seg.rng.Lo,
				Hi:            seg.rng.Hi,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Lo < out[j].Lo
	})
	return out
}

// NeedsRecovery reports whether any segment still needs recovery. While
// true the site as a whole is not fully rejoined — pings omit the
// site-level ready flag — but individual Ready objects serve normally.
func (s *Site) NeedsRecovery() bool {
	s.objMu.Lock()
	defer s.objMu.Unlock()
	for _, o := range s.objs {
		for _, seg := range o.segs {
			if seg.state != ObjReady {
				return true
			}
		}
	}
	return false
}

// SetRecovered marks every object Ready: HARBOR RecoverSite (or ARIES
// restart recovery, which is whole-site by construction) completed, so the
// site's replicas hold every commit through the recovery's high water mark
// and may again seed other sites' catch-up. Segment boundaries collapse
// back to the degenerate whole-object form — they only exist to let
// recovery progress differ across a key range, and it no longer does.
func (s *Site) SetRecovered() {
	s.objMu.Lock()
	for id, o := range s.objs {
		var ct tuple.Timestamp
		for i, seg := range o.segs {
			if i == 0 || seg.copiedThrough < ct {
				ct = seg.copiedThrough
			}
		}
		s.objs[id] = objStatus{segs: []segStatus{fullSeg(ObjReady, ct)}}
	}
	s.startedDirty = false
	data := s.renderObjStatesLocked()
	s.objMu.Unlock()
	s.writeObjStates(data)
}

// pendingFaultCap bounds the per-table buffer of fault-in ranges recorded
// while no recovery driver is attached.
const pendingFaultCap = 16

// SetFaultInHook installs the on-demand fault-in hook: requestFaultIn calls
// it (in the background, deduplicated per table) when a query or recovery
// scan lands on a not-yet-Ready object, so the recovery driver can promote
// that object — and the specific key range the refused read wanted — to the
// front of its queue. Fault-ins that arrived while no hook was attached
// (queries hammering the site between restart and RecoverSite) were
// buffered and are replayed synchronously here, so the driver knows the hot
// ranges before its first scheduling decision. Pass nil to uninstall.
func (s *Site) SetFaultInHook(fn func(table int32, rng expr.KeyRange)) {
	s.faultMu.Lock()
	s.faultInHook = fn
	pending := s.pendingFaults
	s.pendingFaults = nil
	s.faultMu.Unlock()
	if fn == nil {
		return
	}
	for table, rngs := range pending {
		for _, rng := range rngs {
			fn(table, rng)
		}
	}
}

// requestFaultIn asks the recovery driver (if one is attached) to
// prioritize table, carrying the key range the refused read touched so the
// driver can pull just that segment forward. Deduplicated per table and
// dispatched on a background goroutine so the serving path never blocks on
// the recovery scheduler. With no driver attached the range is buffered for
// replay at the next SetFaultInHook.
func (s *Site) requestFaultIn(table int32, rng expr.KeyRange) {
	if s.crashed.Load() {
		return
	}
	s.faultMu.Lock()
	hook := s.faultInHook
	if hook == nil {
		if s.pendingFaults == nil {
			s.pendingFaults = map[int32][]expr.KeyRange{}
		}
		buf := s.pendingFaults[table]
		dup := false
		for _, h := range buf {
			if h == rng {
				dup = true
				break
			}
		}
		if !dup && len(buf) < pendingFaultCap {
			s.pendingFaults[table] = append(buf, rng)
		}
		s.faultMu.Unlock()
		return
	}
	if s.faultBusy[table] {
		s.faultMu.Unlock()
		return
	}
	if s.faultBusy == nil {
		s.faultBusy = map[int32]bool{}
	}
	s.faultBusy[table] = true
	s.faultMu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			s.faultMu.Lock()
			delete(s.faultBusy, table)
			s.faultMu.Unlock()
		}()
		hook(table, rng)
	}()
}
