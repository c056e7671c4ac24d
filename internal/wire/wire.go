// Package wire defines the binary message protocol spoken between
// coordinators, workers, recovering sites, and backup coordinators
// (the "Communication Layer" box of Figure 6-1). Messages are
// length-prefixed, CRC-protected frames with a hand-rolled fixed codec —
// no reflection, stdlib only.
//
// One message struct serves all message types (like the WAL's record
// union); the Type selects which fields are meaningful. Tuples travel in a
// self-describing value encoding so replicas with different physical layouts
// can exchange logical tuples (§3.1: copies need not be stored identically).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"harbor/internal/expr"
	"harbor/internal/tuple"
)

// Type enumerates message types.
type Type uint8

// Request and response message types.
const (
	// --- generic responses ---
	MsgOK Type = iota + 1
	MsgErr
	MsgVote    // Flags&1 = YES
	MsgScanEnd // end of tuple stream; Count = rows sent

	// --- worker requests: transactions and data ---
	MsgBegin
	MsgCreateTable // Desc + SegPages
	MsgInsert      // Txn, Table, Tuple
	MsgDeleteKey   // Txn, Table, Key
	MsgUpdateKey   // Txn, Table, Key, Tuple (replacement user values)
	MsgSimWork     // Txn, Cycles — simulated CPU work (§6.3.2)
	MsgScan        // Txn, Table, Vis, TS(asOf), Flags&1 locked, Pred
	MsgEndRead     // Txn — release a read-only transaction's resources

	// --- commit processing (§4.3) ---
	MsgPrepare         // Txn; Sites = participant worker ids (3PC)
	MsgPrepareToCommit // Txn, TS = commit time
	MsgCommit          // Txn, TS = commit time
	MsgAbort           // Txn

	// --- recovery (Chapter 5) ---
	MsgRecoveryScan // Table, TS(asOf; 0=none), bounds, KeyLo/KeyHi, Flags&1 keys-only
	MsgLockTable    // Txn, Table — table-granularity read lock (§5.4.1)
	MsgUnlockTable  // Txn, Table
	MsgTableMeta    // Table → OK with Count = current time seen? (diagnostic)
	MsgCheckpointNow

	// --- consensus building protocol (§4.3.3) ---
	MsgQueryTxnState // Txn → MsgTxnState
	MsgTxnState      // Flags = state code, TS = commit time if known

	// --- coordinator server (recovery + resolution) ---
	MsgObjectOnline // Site, Table: "rec on S is coming online" (Fig 5-4)
	MsgAllDone      // coordinator → recovering site
	MsgTxnOutcome   // Txn → MsgTxnState (FlagKnown+FlagYes committed, FlagKnown aborted, else unknown)
	MsgCurrentTime  // → OK with TS = authority's current time

	// --- cluster management ---
	MsgPing
	MsgCrash  // test hook: fail-stop the site
	MsgVacuum // Table (0 = all tables), TS = horizon → OK with Count = purged

	// MsgObjectStatus asks the coordinator whether a replica participates
	// in updates (Site, Table → OK, FlagYes = online). Recovery uses it to
	// reject evicted-but-reachable buddies as sources: a site that missed
	// commits since its eviction answers pings yet must not seed another
	// site's catch-up.
	MsgObjectStatus

	// MsgCommitFast is the early-vote 1PC fast path's single round (Txn,
	// TS = commit time): the worker's YES vote was implicit in its
	// per-operation acks, so this one message both fixes the commit time
	// and applies the commit.
	MsgCommitFast

	// MsgTupleBatch is one frame of a batched tuple stream: Count rows
	// packed back-to-back in Raw using the fixed-width heap-page row
	// encoding (Desc.Width() bytes per row — no per-value boxing). With
	// FlagYes the frame is the keys-only projection of a recovery deletion
	// query: Count pairs of (key, del_ts), KeysOnlyStride bytes each.
	MsgTupleBatch

	// MsgAggBatch is one frame of a pushed-down aggregate stream: Count
	// partial group-state rows packed back-to-back in Raw, every column an
	// int64 little-endian (AggStride bytes per row). A row is the group key
	// (only when the request grouped, AggGroup >= 0) followed by one value
	// per partial column of the request's agg spec. The stream still ends
	// with MsgScanEnd; Count there is the total number of groups.
	MsgAggBatch

	// --- elastic cluster management (node join, segment rebalancing) ---

	// MsgJoinSite registers a cold site with the coordinator (Site,
	// Text = address). The reply is MsgOK with TS = the current placement
	// version and Objs = the replica assignment the joining site should
	// migrate onto itself: one (Table, Lo, Hi) entry per assigned range.
	// The assignment is advisory — placement only flips when each range's
	// migration completes its locked catch-up (MsgPlacementChange).
	MsgJoinSite

	// MsgPlacementChange mutates catalog placement through the coordinator
	// so routing and placement move together: Site, Table, KeyLo/KeyHi,
	// SegPages; FlagYes = add the range, clear = remove it (K-safety
	// guarded). The coordinator drains read plans resolved against older
	// placement versions before answering MsgOK with TS = the new version.
	MsgPlacementChange

	// MsgPurgeRange physically deletes a worker's rows in [KeyLo, KeyHi) of
	// Table — the donor-side cleanup after its coverage of the range was
	// removed from the catalog. Replies MsgOK with Count = rows purged.
	// Subsequent scans declaring an intersecting range are refused with a
	// placement-stale error so plans from before the move replan instead of
	// silently reading the hole.
	MsgPurgeRange
)

var typeNames = map[Type]string{
	MsgOK: "OK", MsgErr: "ERR", MsgVote: "VOTE", MsgScanEnd: "SCAN-END",
	MsgBegin: "BEGIN", MsgCreateTable: "CREATE-TABLE",
	MsgInsert: "INSERT", MsgDeleteKey: "DELETE-KEY", MsgUpdateKey: "UPDATE-KEY",
	MsgSimWork: "SIM-WORK", MsgScan: "SCAN", MsgEndRead: "END-READ",
	MsgPrepare: "PREPARE", MsgPrepareToCommit: "PREPARE-TO-COMMIT",
	MsgCommit: "COMMIT", MsgAbort: "ABORT", MsgRecoveryScan: "RECOVERY-SCAN",
	MsgLockTable: "LOCK-TABLE", MsgUnlockTable: "UNLOCK-TABLE",
	MsgTableMeta: "TABLE-META", MsgCheckpointNow: "CHECKPOINT-NOW",
	MsgQueryTxnState: "QUERY-TXN-STATE", MsgTxnState: "TXN-STATE",
	MsgObjectOnline: "OBJECT-ONLINE", MsgAllDone: "ALL-DONE",
	MsgTxnOutcome: "TXN-OUTCOME", MsgCurrentTime: "CURRENT-TIME",
	MsgPing: "PING", MsgCrash: "CRASH", MsgVacuum: "VACUUM",
	MsgObjectStatus: "OBJECT-STATUS", MsgCommitFast: "COMMIT-FAST",
	MsgTupleBatch: "TUPLE-BATCH", MsgAggBatch: "AGG-BATCH",
	MsgJoinSite: "JOIN-SITE", MsgPlacementChange: "PLACEMENT-CHANGE",
	MsgPurgeRange: "PURGE-RANGE",
}

// String renders the message type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Flag bits in Msg.Flags.
const (
	// FlagYes marks a YES vote / success / keys-only projection / locked
	// scan, depending on message type.
	FlagYes uint8 = 1 << iota
	// FlagHasInsLE marks the InsLE bound present (recovery scans).
	FlagHasInsLE
	// FlagHasInsGT marks the InsGT bound present.
	FlagHasInsGT
	// FlagHasDelGT marks the DelGT bound present.
	FlagHasDelGT
	// FlagNoPrune disables segment pruning on a recovery scan (ablation
	// benchmarks measuring the value of the §4.2 segment architecture).
	FlagNoPrune
	// FlagKnown on a TXN-STATE outcome reply marks the coordinator as
	// actually having recorded the outcome; without it the transaction is
	// unknown or still in flight and FlagYes carries no information.
	FlagKnown
	// FlagSurvivor on an OBJECT-STATUS reply marks the queried site as the
	// last replica of the table to leave the update set while no replica
	// is online. No commit can postdate its eviction, so its local state
	// is complete and recovery may rejoin it from its own data.
	FlagSurvivor
)

// Msg is the wire message union.
type Msg struct {
	Type                Type
	Txn                 int64
	Table               int32
	Site                int32
	Key                 int64
	TS                  int64 // commit time, asOf, or current time
	Cycles              int64
	Count               int64
	Flags               uint8
	Vis                 uint8
	SegPages            int32
	KeyLo, KeyHi        int64
	InsLE, InsGT, DelGT int64 // valid per Flags
	Text                string
	Sites               []int32 // 3PC participant list
	Desc                *tuple.Desc
	Tuple               []tuple.Value // self-describing tuple values
	Pred                []expr.Term
	Raw                 []byte // packed rows of a MsgTupleBatch/MsgAggBatch frame

	// AggGroup and Aggs are the pushed-down aggregate spec of a MsgScan.
	// A non-empty Aggs list turns the scan into a partial aggregation:
	// the worker groups by input field AggGroup (-1 = one global group),
	// computes one partial state column per AggCol, and streams MsgAggBatch
	// frames instead of rows. Presence is signalled by len(Aggs) > 0.
	AggGroup int32
	Aggs     []AggCol

	// Objs is the per-object readiness list of a PING reply: one entry per
	// replica object on the answering site, carrying its recovery state and
	// the historical horizon it can serve. FlagYes on the reply remains the
	// aggregate all-objects-Ready bit, so old-style whole-site readiness is
	// the degenerate reading of the same message.
	Objs []ObjReady
}

// AggCol is one pushed-down partial aggregate column: the function code
// (exec.AggFunc numbering) and the input field it reads.
type AggCol struct {
	Fn    uint8
	Field int32
}

// ObjReady is one segment's entry in a ping reply's readiness list: the
// worker.ObjState code, the copiedThrough horizon (historical reads asOf
// ≤ CopiedThrough are servable even before the segment is fully Ready),
// and the half-open key range [Lo, Hi) the entry covers. A whole-object
// entry is the degenerate single segment spanning the replica's range.
type ObjReady struct {
	Table         int32
	State         uint8
	CopiedThrough int64
	Lo, Hi        int64
}

// Yes reports the FlagYes bit.
func (m *Msg) Yes() bool { return m.Flags&FlagYes != 0 }

// ErrRemoteCorrupt marks a MsgErr caused by a CRC-quarantined page on the
// serving site. Error text alone cannot carry a typed identity across the
// wire, and recovery must tell this apart from a fatal remote error: the
// failed read has already armed the server's background repair-from-buddy,
// so the right client move is back off and retry, not give up.
var ErrRemoteCorrupt = errors.New("remote page corrupt")

// ErrPlacementStale marks a scan refused because the serving site no longer
// holds the declared key range: the plan was resolved against a placement
// version from before a segment move. The coordinator replans the remaining
// range against the current catalog instead of treating the site as failed.
var ErrPlacementStale = errors.New("placement stale")

// Err converts a MsgErr into an error (nil otherwise). A MsgErr with
// FlagYes set reports a corrupt page on the server and wraps
// ErrRemoteCorrupt for errors.Is; FlagKnown (meaningless on an error reply
// otherwise) wraps ErrPlacementStale.
func (m *Msg) Err() error {
	if m.Type == MsgErr {
		if m.Yes() {
			return fmt.Errorf("%w: %s", ErrRemoteCorrupt, m.Text)
		}
		if m.Flags&FlagKnown != 0 {
			return fmt.Errorf("%w: %s", ErrPlacementStale, m.Text)
		}
		return fmt.Errorf("remote: %s", m.Text)
	}
	return nil
}

// Marshal encodes the message body (without framing). It always allocates;
// hot paths use AppendTo with a reused scratch buffer instead.
func (m *Msg) Marshal() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded message body to b and returns the extended
// slice. Appending into a caller-owned scratch buffer lets a connection
// marshal every outgoing message without a fresh allocation.
func (m *Msg) AppendTo(b []byte) []byte {
	u8 := func(v uint8) { b = append(b, v) }
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u8(uint8(m.Type))
	u64(uint64(m.Txn))
	u32(uint32(m.Table))
	u32(uint32(m.Site))
	u64(uint64(m.Key))
	u64(uint64(m.TS))
	u64(uint64(m.Cycles))
	u64(uint64(m.Count))
	u8(m.Flags)
	u8(m.Vis)
	u32(uint32(m.SegPages))
	u64(uint64(m.KeyLo))
	u64(uint64(m.KeyHi))
	u64(uint64(m.InsLE))
	u64(uint64(m.InsGT))
	u64(uint64(m.DelGT))
	u32(uint32(len(m.Text)))
	b = append(b, m.Text...)
	u32(uint32(len(m.Sites)))
	for _, s := range m.Sites {
		u32(uint32(s))
	}
	if m.Desc != nil {
		schema := m.Desc.Marshal()
		u32(uint32(len(schema)))
		b = append(b, schema...)
	} else {
		u32(0)
	}
	u32(uint32(len(m.Tuple)))
	for _, v := range m.Tuple {
		if v.Str != "" {
			u8(1)
			u32(uint32(len(v.Str)))
			b = append(b, v.Str...)
		} else {
			u8(0)
			u64(uint64(v.I64))
		}
	}
	u32(uint32(len(m.Pred)))
	for _, t := range m.Pred {
		u32(uint32(t.Field))
		u8(uint8(t.Op))
		if t.Value.Str != "" {
			u8(1)
			u32(uint32(len(t.Value.Str)))
			b = append(b, t.Value.Str...)
		} else {
			u8(0)
			u64(uint64(t.Value.I64))
		}
	}
	u32(uint32(len(m.Raw)))
	b = append(b, m.Raw...)
	u32(uint32(m.AggGroup))
	u32(uint32(len(m.Aggs)))
	for _, a := range m.Aggs {
		u8(a.Fn)
		u32(uint32(a.Field))
	}
	u32(uint32(len(m.Objs)))
	for _, o := range m.Objs {
		u32(uint32(o.Table))
		u8(o.State)
		u64(uint64(o.CopiedThrough))
		u64(uint64(o.Lo))
		u64(uint64(o.Hi))
	}
	return b
}

// Unmarshal decodes a message body.
func Unmarshal(b []byte) (*Msg, error) {
	m := &Msg{}
	off := 0
	fail := func() (*Msg, error) { return nil, fmt.Errorf("wire: message truncated at %d", off) }
	u8 := func() (uint8, bool) {
		if off+1 > len(b) {
			return 0, false
		}
		v := b[off]
		off++
		return v, true
	}
	u32 := func() (uint32, bool) {
		if off+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if off+8 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, true
	}
	str := func(n uint32) (string, bool) {
		if off+int(n) > len(b) {
			return "", false
		}
		s := string(b[off : off+int(n)])
		off += int(n)
		return s, true
	}
	t8, ok := u8()
	if !ok {
		return fail()
	}
	m.Type = Type(t8)
	var v64 uint64
	var v32 uint32
	var v8 uint8
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.Txn = int64(v64)
	if v32, ok = u32(); !ok {
		return fail()
	}
	m.Table = int32(v32)
	if v32, ok = u32(); !ok {
		return fail()
	}
	m.Site = int32(v32)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.Key = int64(v64)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.TS = int64(v64)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.Cycles = int64(v64)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.Count = int64(v64)
	if v8, ok = u8(); !ok {
		return fail()
	}
	m.Flags = v8
	if v8, ok = u8(); !ok {
		return fail()
	}
	m.Vis = v8
	if v32, ok = u32(); !ok {
		return fail()
	}
	m.SegPages = int32(v32)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.KeyLo = int64(v64)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.KeyHi = int64(v64)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.InsLE = int64(v64)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.InsGT = int64(v64)
	if v64, ok = u64(); !ok {
		return fail()
	}
	m.DelGT = int64(v64)
	if v32, ok = u32(); !ok {
		return fail()
	}
	if m.Text, ok = str(v32); !ok {
		return fail()
	}
	if v32, ok = u32(); !ok {
		return fail()
	}
	for i := uint32(0); i < v32; i++ {
		s, ok := u32()
		if !ok {
			return fail()
		}
		m.Sites = append(m.Sites, int32(s))
	}
	if v32, ok = u32(); !ok {
		return fail()
	}
	if v32 > 0 {
		if off+int(v32) > len(b) {
			return fail()
		}
		d, n, err := tuple.UnmarshalDesc(b[off : off+int(v32)])
		if err != nil {
			return nil, err
		}
		if n != int(v32) {
			return nil, fmt.Errorf("wire: schema length mismatch")
		}
		off += int(v32)
		m.Desc = d
	}
	if v32, ok = u32(); !ok {
		return fail()
	}
	for i := uint32(0); i < v32; i++ {
		kind, ok := u8()
		if !ok {
			return fail()
		}
		var v tuple.Value
		if kind == 1 {
			n, ok := u32()
			if !ok {
				return fail()
			}
			if v.Str, ok = str(n); !ok {
				return fail()
			}
		} else {
			x, ok := u64()
			if !ok {
				return fail()
			}
			v.I64 = int64(x)
		}
		m.Tuple = append(m.Tuple, v)
	}
	if v32, ok = u32(); !ok {
		return fail()
	}
	for i := uint32(0); i < v32; i++ {
		field, ok1 := u32()
		op, ok2 := u8()
		if !ok1 || !ok2 {
			return fail()
		}
		term := expr.Term{Field: int(int32(field)), Op: expr.Op(op)}
		kind, ok := u8()
		if !ok {
			return fail()
		}
		if kind == 1 {
			n, ok := u32()
			if !ok {
				return fail()
			}
			if term.Value.Str, ok = str(n); !ok {
				return fail()
			}
		} else {
			x, ok := u64()
			if !ok {
				return fail()
			}
			term.Value.I64 = int64(x)
		}
		m.Pred = append(m.Pred, term)
	}
	if v32, ok = u32(); !ok {
		return fail()
	}
	if v32 > 0 {
		if off+int(v32) > len(b) {
			return fail()
		}
		m.Raw = append([]byte(nil), b[off:off+int(v32)]...)
		off += int(v32)
	}
	if v32, ok = u32(); !ok {
		return fail()
	}
	m.AggGroup = int32(v32)
	if v32, ok = u32(); !ok {
		return fail()
	}
	for i := uint32(0); i < v32; i++ {
		fn, ok1 := u8()
		field, ok2 := u32()
		if !ok1 || !ok2 {
			return fail()
		}
		m.Aggs = append(m.Aggs, AggCol{Fn: fn, Field: int32(field)})
	}
	if v32, ok = u32(); !ok {
		return fail()
	}
	for i := uint32(0); i < v32; i++ {
		table, ok1 := u32()
		state, ok2 := u8()
		ct, ok3 := u64()
		lo, ok4 := u64()
		hi, ok5 := u64()
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
			return fail()
		}
		m.Objs = append(m.Objs, ObjReady{Table: int32(table), State: state,
			CopiedThrough: int64(ct), Lo: int64(lo), Hi: int64(hi)})
	}
	return m, nil
}

// WriteMsg frames and writes one message: u32 length, u32 crc, body. Each
// call allocates a fresh frame; connections use an Encoder instead.
func WriteMsg(w io.Writer, m *Msg) error {
	var e Encoder
	return e.WriteMsg(w, m)
}

// Encoder frames messages through a reusable scratch buffer: the frame
// (header + body) is assembled in place and written with a single Write.
// An Encoder is not safe for concurrent use; comm.Conn serialises writers.
type Encoder struct {
	buf []byte
}

// WriteMsg frames and writes one message, reusing the encoder's buffer.
func (e *Encoder) WriteMsg(w io.Writer, m *Msg) error {
	b := append(e.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	b = m.AppendTo(b)
	e.buf = b // keep the grown capacity for the next message
	body := b[8:]
	binary.LittleEndian.PutUint32(b, uint32(len(body)))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(body))
	_, err := w.Write(b)
	return err
}

// MaxMsgSize bounds a frame (sanity against stream corruption).
const MaxMsgSize = 16 << 20

// ReadMsg reads one framed message, allocating a fresh frame buffer.
// Connections use a Decoder instead.
func ReadMsg(r io.Reader) (*Msg, error) {
	var d Decoder
	return d.ReadMsg(r)
}

// Decoder reads frames through a reusable scratch buffer. Unmarshal copies
// every string out of the frame, so the buffer may be reused immediately.
// A Decoder is not safe for concurrent use; connections have one reader.
type Decoder struct {
	buf []byte
}

// ReadMsg reads one framed message, reusing the decoder's buffer.
func (d *Decoder) ReadMsg(r io.Reader) (*Msg, error) {
	if cap(d.buf) < 8 {
		d.buf = make([]byte, 8, 4<<10)
	}
	hdr := d.buf[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxMsgSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	body := d.buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("wire: frame checksum mismatch")
	}
	return Unmarshal(body)
}

// TupleValues converts an in-memory tuple to wire values.
func TupleValues(t tuple.Tuple) []tuple.Value {
	return append([]tuple.Value(nil), t.Values...)
}

// ToTuple converts wire values back to a tuple.
func ToTuple(vals []tuple.Value) tuple.Tuple {
	return tuple.Tuple{Values: append([]tuple.Value(nil), vals...)}
}

// PredOf converts wire terms into a predicate.
func PredOf(terms []expr.Term) expr.Pred { return expr.Pred{Terms: terms} }

// KeysOnlyStride is the byte width of one row of a keys-only batch frame:
// the tuple key and its deletion timestamp, both int64 little-endian.
const KeysOnlyStride = 16

// AppendKeyRow appends one (key, del_ts) pair to a keys-only frame payload.
func AppendKeyRow(raw []byte, key, delTS int64) []byte {
	raw = binary.LittleEndian.AppendUint64(raw, uint64(key))
	return binary.LittleEndian.AppendUint64(raw, uint64(delTS))
}

// KeyRow decodes row i of a keys-only frame payload.
func KeyRow(raw []byte, i int) (key, delTS int64) {
	off := i * KeysOnlyStride
	key = int64(binary.LittleEndian.Uint64(raw[off:]))
	delTS = int64(binary.LittleEndian.Uint64(raw[off+8:]))
	return key, delTS
}

// AggStride is the byte width of one partial group-state row of ncols
// int64 columns.
func AggStride(ncols int) int { return 8 * ncols }

// AppendAggRow appends one partial group-state row to an agg frame payload.
func AppendAggRow(raw []byte, vals ...int64) []byte {
	for _, v := range vals {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
	}
	return raw
}

// AggRow appends the ncols values of row i of an agg frame payload to dst.
func AggRow(raw []byte, i, ncols int, dst []int64) []int64 {
	off := i * AggStride(ncols)
	for c := 0; c < ncols; c++ {
		dst = append(dst, int64(binary.LittleEndian.Uint64(raw[off+8*c:])))
	}
	return dst
}

// CheckBatch validates a MsgTupleBatch/MsgAggBatch frame against the row
// stride it is expected to carry (Desc.Width() for full rows,
// KeysOnlyStride for the keys-only projection, AggStride for partial
// group states) and returns the row count.
func CheckBatch(m *Msg, stride int) (int, error) {
	if stride <= 0 {
		return 0, fmt.Errorf("wire: batch stride %d", stride)
	}
	if int64(len(m.Raw)) != m.Count*int64(stride) {
		return 0, fmt.Errorf("wire: batch frame %d bytes, want %d rows × %d",
			len(m.Raw), m.Count, stride)
	}
	return int(m.Count), nil
}

// BatchTargetRows and BatchTargetBytes are the flush policy of batched
// tuple streams: a frame is sent when it reaches BatchTargetRows rows or
// its payload exceeds BatchTargetBytes, whichever comes first.
const (
	BatchTargetRows  = 256
	BatchTargetBytes = 32 << 10
)
