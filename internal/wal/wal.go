// Package wal implements the write-ahead log used by the ARIES baseline and
// by the logging commit protocols (traditional 2PC, canonical 3PC). HARBOR
// mode creates no log at all — that asymmetry is the point of the thesis.
//
// The log is a single append-only file of CRC-protected records. LSNs are
// byte offsets + 1 (so the zero LSN means "never logged"). Force implements
// group commit (§6.2: "the database uses group commit without a group delay
// timer"): concurrent Force calls are batched into a single fsync by one
// flusher; an optional delay timer can be configured to widen batches.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/vfs"
)

// RecType enumerates log record types.
type RecType uint8

const (
	// RecInsert logs a physical slot insert (redo: put image; undo: free slot).
	RecInsert RecType = iota + 1
	// RecDelete logs a physical slot delete (redo: free slot; undo: put image).
	RecDelete
	// RecSetField logs an 8-byte in-place field update — commit-time
	// timestamp stamping writes these (§6.1.7: "ARIES requires writing
	// additional log records for the timestamp updates").
	RecSetField
	// RecAlloc logs page allocation so redo can rebuild the segment
	// directory deterministically.
	RecAlloc
	// RecCLR is a compensation log record written while undoing.
	RecCLR
	// RecPrepare marks a worker prepared (2PC first phase, §4.3.1).
	RecPrepare
	// RecPrepareToCommit marks a worker prepared-to-commit (canonical 3PC).
	RecPrepareToCommit
	// RecCommit marks a transaction committed (carries the commit time).
	RecCommit
	// RecAbort marks a transaction aborted.
	RecAbort
	// RecEnd marks commit processing finished (coordinator's W(END)).
	RecEnd
	// RecCheckpoint is a fuzzy checkpoint carrying the dirty-page table and
	// the transaction table.
	RecCheckpoint
	// RecDeleteIntent records a versioned-delete intent before any page
	// bytes change. Deletion timestamps are only assigned at commit
	// (§6.1.4), so a prepared transaction's deletion list must be
	// reconstructable from the log for the worker to complete an in-doubt
	// commit after a crash.
	RecDeleteIntent
)

// String renders the record type.
func (t RecType) String() string {
	switch t {
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecSetField:
		return "SETFIELD"
	case RecAlloc:
		return "ALLOC"
	case RecCLR:
		return "CLR"
	case RecPrepare:
		return "PREPARE"
	case RecPrepareToCommit:
		return "PREPARE-TO-COMMIT"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecEnd:
		return "END"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecDeleteIntent:
		return "DELETE-INTENT"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record is one log record. Not every field is meaningful for every type.
type Record struct {
	LSN     page.LSN // assigned by Append
	Type    RecType
	Txn     int64    // transaction id (0 for checkpoints)
	PrevLSN page.LSN // previous record of the same transaction (undo chain)

	// Page-op fields (Insert/Delete/SetField/Alloc/CLR).
	Page page.ID
	Slot int32

	// Image carries the tuple image for Insert (after) and Delete (before).
	Image []byte

	// SetField fields.
	FieldOff int32
	Before   int64
	After    int64

	// Alloc fields.
	SegIdx     int32
	NewSegment bool

	// Commit time for RecCommit; also reused as the checkpoint's
	// begin-checkpoint timestamp.
	CommitTS int64

	// UndoNext for CLRs: the next record to undo for this transaction.
	UndoNext page.LSN

	// Checkpoint payload.
	DirtyPages []DirtyPage
	ActiveTxns []TxnStatus
}

// DirtyPage is a checkpoint's dirty-page-table entry: the page and its
// recovery LSN (oldest LSN that may have dirtied it).
type DirtyPage struct {
	Page   page.ID
	RecLSN page.LSN
}

// TxnState mirrors the ARIES transaction table states.
type TxnState uint8

const (
	// TxnActive is an in-flight transaction.
	TxnActive TxnState = iota + 1
	// TxnPrepared is an in-doubt distributed transaction.
	TxnPrepared
	// TxnCommitted has a COMMIT record but no END yet.
	TxnCommitted
	// TxnAborted has an ABORT record but undo may be unfinished.
	TxnAborted
)

// TxnStatus is a checkpoint's transaction-table entry.
type TxnStatus struct {
	Txn     int64
	State   TxnState
	LastLSN page.LSN
}

// Manager is one site's log manager.
type Manager struct {
	mu      sync.Mutex
	file    vfs.File
	buf     []byte   // unflushed tail
	bufLSN  page.LSN // LSN of buf[0]
	nextLSN page.LSN

	flushed    atomic.Uint64 // LSN up to which the log is durable
	flushCond  *sync.Cond
	flushing   bool
	groupDelay time.Duration
	// noGroup disables group commit: each Force call performs its own
	// serialized fsync instead of piggybacking on a concurrent flusher's
	// batch (the Figure 6-2 "2PC without group commit" configuration).
	noGroup bool
	// syncDelay adds simulated rotational latency to every fsync,
	// modelling the 2006-era disks of the thesis testbed on modern
	// hardware whose fsync is orders of magnitude faster. The delay is
	// inside the flusher's critical section, so group commit amortises it
	// across batched transactions exactly as it amortised real disk time.
	syncDelay time.Duration

	// Registry-backed counters for Table 4.2 style accounting (wal.force_calls,
	// wal.fsyncs, wal.appends, wal.fsync.ns); rebindable via Instrument.
	forceCalls *obs.Counter // logical forced-writes requested by protocols
	fsyncs     *obs.Counter // physical fsyncs actually issued
	appends    *obs.Counter
	fsyncNS    *obs.Histogram // per-fsync latency (includes simulated delay)
}

// Path returns the log file path within a site directory.
func Path(dir string) string { return filepath.Join(dir, "wal.log") }

// MasterPath returns the master-record path holding the last checkpoint LSN.
func MasterPath(dir string) string { return filepath.Join(dir, "wal.master") }

// Open opens (creating if needed) the site's log, positioned for appends
// after the last complete record. groupDelay widens group-commit batches
// (0 = flush as soon as a flusher is free, the thesis default).
func Open(dir string, groupDelay time.Duration) (*Manager, error) {
	f, err := vfs.OpenFile(Path(dir), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// Scan to find the end of the last complete record (torn tails from a
	// crash are discarded).
	end, err := scanEnd(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	m := &Manager{
		file:       f,
		nextLSN:    page.LSN(end) + 1,
		bufLSN:     page.LSN(end) + 1,
		groupDelay: groupDelay,
	}
	m.flushed.Store(uint64(end) + 1)
	m.flushCond = sync.NewCond(&m.mu)
	m.Instrument(obs.NewRegistry())
	return m, nil
}

// Instrument rebinds the manager's counters to reg (call right after Open,
// before concurrent use). The owning Site/Coordinator passes its own registry
// so wal.* metrics appear in that component's /debug/harbor snapshot; until
// then a private registry keeps the counters always valid.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.forceCalls = reg.Counter("wal.force_calls")
	m.fsyncs = reg.Counter("wal.fsyncs")
	m.appends = reg.Counter("wal.appends")
	m.fsyncNS = reg.Histogram("wal.fsync.ns")
}

func scanEnd(f vfs.File) (int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	var off int64
	hdr := make([]byte, 8)
	for off+8 <= size {
		if _, err := f.ReadAt(hdr, off); err != nil {
			return off, nil
		}
		n := int64(binary.LittleEndian.Uint32(hdr))
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || off+8+n > size {
			break
		}
		body := make([]byte, n)
		if _, err := f.ReadAt(body, off+8); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body) != sum {
			break
		}
		off += 8 + n
	}
	return off, nil
}

// Close closes the log file without flushing.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.file.Close()
}

// Append adds a record to the log buffer and returns its LSN. The record is
// not durable until Force (or a batched flush) covers it.
func (m *Manager) Append(r *Record) page.LSN {
	body := marshalRecord(r)
	framed := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint32(framed, uint32(len(body)))
	binary.LittleEndian.PutUint32(framed[4:], crc32.ChecksumIEEE(body))
	copy(framed[8:], body)

	m.mu.Lock()
	r.LSN = m.nextLSN
	m.buf = append(m.buf, framed...)
	m.nextLSN += page.LSN(len(framed))
	m.mu.Unlock()
	m.appends.Inc()
	return r.LSN
}

// FlushedLSN returns the LSN up to which the log is durable (exclusive).
func (m *Manager) FlushedLSN() page.LSN { return page.LSN(m.flushed.Load()) }

// Force makes the log durable at least up to lsn (inclusive of that
// record). Concurrent callers are batched into one fsync — group commit.
// countAsForcedWrite selects whether the call is tallied as a protocol-level
// forced-write (Table 4.2 accounting); normal writes (e.g. the
// coordinator's W(END)) pass false and typically never call Force at all.
func (m *Manager) Force(lsn page.LSN, countAsForcedWrite bool) error {
	if countAsForcedWrite {
		m.forceCalls.Inc()
	}
	if page.LSN(m.flushed.Load()) > lsn {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for page.LSN(m.flushed.Load()) <= lsn {
		if m.flushing {
			if m.noGroup {
				// No group commit: do not piggyback on the concurrent
				// flush; wait for the flusher to finish, then run a full
				// write+fsync cycle of our own even though the finished
				// batch may already cover our LSN. This serialises the log
				// I/O of concurrent transactions, which is exactly the
				// behaviour the paper measures (Figure 6-2's flat line).
				// The buffered batch must be written *before* the fsync:
				// an fsync of the bare file would leave the caller's
				// record volatile and push durability onto a second loop
				// iteration (and a second fsync).
				for m.flushing {
					m.flushCond.Wait()
				}
				m.flushing = true
				if err := m.flushBatch(); err != nil {
					return err
				}
				continue
			}
			// Another goroutine is flushing; wait for it and re-check —
			// its batch may already cover us (group commit).
			m.flushCond.Wait()
			continue
		}
		// Become the flusher for everything buffered right now.
		m.flushing = true
		if m.groupDelay > 0 {
			m.mu.Unlock()
			time.Sleep(m.groupDelay)
			m.mu.Lock()
		}
		if err := m.flushBatch(); err != nil {
			return err
		}
	}
	return nil
}

// flushBatch writes and syncs everything buffered right now, then publishes
// the new durable LSN. Called with m.mu held and m.flushing set by the
// caller; returns with m.mu re-held and m.flushing cleared.
func (m *Manager) flushBatch() error {
	batch := m.buf
	batchLSN := m.bufLSN
	m.buf = nil
	m.bufLSN = m.nextLSN
	m.mu.Unlock()

	var err error
	if len(batch) > 0 {
		_, err = m.file.Write(batch)
	}
	if err == nil {
		start := time.Now()
		err = m.file.Sync()
		m.sleepSyncDelay()
		m.fsyncs.Inc()
		m.fsyncNS.Observe(time.Since(start).Nanoseconds())
	}

	m.mu.Lock()
	m.flushing = false
	if err != nil {
		// Put nothing back; a failed log device is fatal for the site.
		m.flushCond.Broadcast()
		return err
	}
	m.flushed.Store(uint64(batchLSN) + uint64(len(batch)))
	m.flushCond.Broadcast()
	return nil
}

// SetNoGroup enables or disables the no-group-commit mode.
func (m *Manager) SetNoGroup(v bool) {
	m.mu.Lock()
	m.noGroup = v
	m.mu.Unlock()
}

// SetSyncDelay configures the simulated per-fsync disk latency (see the
// syncDelay field). Zero disables the simulation.
func (m *Manager) SetSyncDelay(d time.Duration) {
	m.mu.Lock()
	m.syncDelay = d
	m.mu.Unlock()
}

// sleepSyncDelay applies the simulated latency (called without m.mu held,
// inside a flushing critical section).
func (m *Manager) sleepSyncDelay() {
	m.mu.Lock()
	d := m.syncDelay
	m.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// FlushAll forces everything appended so far (checkpoint use).
func (m *Manager) FlushAll() error {
	m.mu.Lock()
	target := m.nextLSN - 1
	m.mu.Unlock()
	return m.Force(target, false)
}

// WriteMaster durably records the LSN of the latest checkpoint record via
// the shared atomic-replace helper. The old implementation synced a
// read-only handle of the temp file (a no-op for durability on some
// platforms) and never fsynced the parent directory, so a crash after the
// rename could roll the master record back; WriteFileAtomic does both
// steps correctly.
func WriteMaster(dir string, lsn page.LSN) error {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(lsn))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return vfs.WriteFileAtomic(MasterPath(dir), buf, 0o644)
}

// ReadMaster returns the last checkpoint LSN, or 0 if none exists.
func ReadMaster(dir string) (page.LSN, error) {
	raw, err := vfs.ReadFile(MasterPath(dir))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(raw) != 12 {
		return 0, fmt.Errorf("wal: master record is %d bytes", len(raw))
	}
	if crc32.ChecksumIEEE(raw[:8]) != binary.LittleEndian.Uint32(raw[8:]) {
		return 0, fmt.Errorf("wal: master record checksum mismatch")
	}
	return page.LSN(binary.LittleEndian.Uint64(raw)), nil
}

// ReadAt returns the single record at the given LSN, reading from disk or
// the in-memory tail as appropriate. The ARIES undo pass and transaction
// rollback walk PrevLSN/UndoNext chains with it.
func (m *Manager) ReadAt(lsn page.LSN) (*Record, error) {
	if lsn == 0 {
		return nil, fmt.Errorf("wal: ReadAt(0)")
	}
	m.mu.Lock()
	bufLSN := m.bufLSN
	var tail []byte
	if lsn >= bufLSN {
		tail = append([]byte(nil), m.buf...)
	}
	m.mu.Unlock()

	var hdr [8]byte
	var body []byte
	if tail != nil {
		off := int64(lsn - bufLSN)
		if off+8 > int64(len(tail)) {
			return nil, fmt.Errorf("wal: LSN %d beyond log end", lsn)
		}
		n := int64(binary.LittleEndian.Uint32(tail[off:]))
		if off+8+n > int64(len(tail)) {
			return nil, fmt.Errorf("wal: LSN %d truncated in tail", lsn)
		}
		body = tail[off+8 : off+8+n]
	} else {
		if _, err := m.file.ReadAt(hdr[:], int64(lsn)-1); err != nil {
			return nil, err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		sum := binary.LittleEndian.Uint32(hdr[4:])
		body = make([]byte, n)
		if _, err := m.file.ReadAt(body, int64(lsn)-1+8); err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(body) != sum {
			return nil, fmt.Errorf("wal: corrupt record at LSN %d", lsn)
		}
	}
	r, err := unmarshalRecord(body)
	if err != nil {
		return nil, err
	}
	r.LSN = lsn
	return r, nil
}

// Iter calls fn for every complete record in LSN order starting at fromLSN
// (0 or 1 = from the beginning). It reads committed state from disk plus the
// in-memory tail, so recovery tests can run without reopening the file.
func (m *Manager) Iter(fromLSN page.LSN, fn func(*Record) (bool, error)) error {
	m.mu.Lock()
	durable := int64(m.bufLSN) - 1 // bytes on disk
	tail := append([]byte(nil), m.buf...)
	tailLSN := m.bufLSN
	m.mu.Unlock()

	emit := func(lsn page.LSN, body []byte) (bool, error) {
		r, err := unmarshalRecord(body)
		if err != nil {
			return false, err
		}
		r.LSN = lsn
		return fn(r)
	}

	if fromLSN < 1 {
		fromLSN = 1
	}
	off := int64(fromLSN) - 1
	hdr := make([]byte, 8)
	for off+8 <= durable {
		if _, err := m.file.ReadAt(hdr, off); err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint32(hdr))
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if off+8+n > durable {
			break
		}
		body := make([]byte, n)
		if _, err := m.file.ReadAt(body, off+8); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(body) != sum {
			return fmt.Errorf("wal: corrupt record at LSN %d", off+1)
		}
		cont, err := emit(page.LSN(off)+1, body)
		if err != nil || !cont {
			return err
		}
		off += 8 + n
	}
	// In-memory tail.
	pos := int64(0)
	for {
		start := int64(tailLSN) - 1 + pos
		if pos+8 > int64(len(tail)) {
			break
		}
		n := int64(binary.LittleEndian.Uint32(tail[pos:]))
		if pos+8+n > int64(len(tail)) {
			break
		}
		body := tail[pos+8 : pos+8+n]
		if start >= int64(fromLSN)-1 {
			cont, err := emit(page.LSN(start)+1, body)
			if err != nil || !cont {
				return err
			}
		}
		pos += 8 + n
	}
	return nil
}
