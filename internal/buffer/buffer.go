// Package buffer implements each site's buffer pool (§6.1.3 of the thesis):
// a fixed number of page frames with per-frame latches, a dirty-pages table
// (required by the Figure 3-2 checkpointing algorithm), a STEAL/NO-FORCE
// default paging policy with the other policies also available, and random
// eviction under saturation.
//
// Locking versus latching: transactional page locks live in the lock
// manager and are acquired by GetPage exactly as the thesis API does
// ("prior to returning a page ... the buffer pool calls hasAccess ... and
// if not, acquires one with acquireLock"). Frame latches are short-term
// sync.RWMutex-es protecting physical page consistency during reads,
// modifications, and flushes.
//
// Flush ordering rules are delegated to the Store's BeforeFlush hook, which
// the worker wires to (a) the WAL rule (force log up to pageLSN before the
// page goes out) in ARIES mode and (b) the segment stats-ahead rule of the
// storage layer in all modes.
package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"harbor/internal/lockmgr"
	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/wal"
)

// Perm is the access permission requested for a page.
type Perm uint8

const (
	// ReadPerm requests shared access.
	ReadPerm Perm = iota + 1
	// WritePerm requests exclusive access.
	WritePerm
)

// Policy selects the paging policy (Gray & Reuter taxonomy, §6.1.3: the
// implementation "enforces a STEAL/NO-FORCE paging policy (though other
// paging policies have also been implemented)").
type Policy uint8

const (
	// StealNoForce allows dirty uncommitted pages to be written out and does
	// not force pages at commit (default; requires WAL in ARIES mode and the
	// uncommitted-timestamp convention in HARBOR mode).
	StealNoForce Policy = iota
	// NoStealNoForce never evicts a dirty page.
	NoStealNoForce
	// StealForce steals and also forces a transaction's pages at commit
	// (the force part is driven by the versioning layer calling FlushPages).
	StealForce
	// NoStealForce neither steals nor avoids commit-time forcing.
	NoStealForce
)

// Steal reports whether the policy permits evicting dirty pages.
func (p Policy) Steal() bool { return p == StealNoForce || p == StealForce }

// Force reports whether the policy forces pages at commit.
func (p Policy) Force() bool { return p == StealForce || p == NoStealForce }

// Store abstracts the storage layer below the pool.
type Store interface {
	// ReadPage returns the 4 KB image of a page.
	ReadPage(pid page.ID) ([]byte, error)
	// WritePage writes a page image (no sync).
	WritePage(pid page.ID, data []byte) error
	// TupleWidth returns the slot width for a table.
	TupleWidth(table int32) (int, error)
	// BeforeFlush runs write-ordering rules before a dirty page goes out.
	BeforeFlush(pid page.ID, pageLSN page.LSN) error
}

// Frame is a pooled page with its latch and bookkeeping.
type Frame struct {
	// Latch guards the page image. Take it in Read mode to scan, Write mode
	// to modify; Unpin releases pins, not the latch.
	Latch sync.RWMutex

	Page *page.Page

	mu     sync.Mutex // guards the fields below
	pins   int
	dirty  bool
	recLSN page.LSN // LSN that first dirtied the page (ARIES DPT)
}

// Dirty reports whether the frame holds unflushed changes.
func (f *Frame) Dirty() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dirty
}

// RecLSN returns the frame's recovery LSN (0 in HARBOR mode).
func (f *Frame) RecLSN() page.LSN {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recLSN
}

// ErrPoolSaturated is returned when every frame is pinned or (under a
// no-steal policy) dirty, so nothing can be evicted.
var ErrPoolSaturated = errors.New("buffer: pool saturated (all frames pinned or unstealable)")

// Pool is one site's buffer pool.
type Pool struct {
	store  Store
	locks  *lockmgr.Manager
	policy Policy

	mu       sync.Mutex
	frames   map[page.ID]*Frame
	capacity int
	rng      *rand.Rand

	// Registry-backed counters (buffer.hits, buffer.misses,
	// buffer.evictions, buffer.flushes); rebindable via Instrument.
	hits, misses, evictions, flushes *obs.Counter
}

// New creates a pool of the given capacity (frames). locks may be nil for
// recovery-internal pools; then GetPage's lock acquisition is skipped and
// callers rely on table-level locks they already hold.
func New(store Store, locks *lockmgr.Manager, capacity int, policy Policy) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &Pool{
		store:    store,
		locks:    locks,
		policy:   policy,
		frames:   make(map[page.ID]*Frame, capacity),
		capacity: capacity,
		rng:      rand.New(rand.NewSource(0x9E3779B9)),
	}
	bp.Instrument(obs.NewRegistry())
	return bp
}

// Instrument rebinds the pool's counters to reg (call before concurrent
// use); the owning Site passes its registry so buffer.* metrics appear in
// its /debug/harbor snapshot.
func (bp *Pool) Instrument(reg *obs.Registry) {
	bp.hits = reg.Counter("buffer.hits")
	bp.misses = reg.Counter("buffer.misses")
	bp.evictions = reg.Counter("buffer.evictions")
	bp.flushes = reg.Counter("buffer.flushes")
}

// Policy returns the pool's paging policy.
func (bp *Pool) Policy() Policy { return bp.policy }

// GetPage returns the frame for pid with the requested transactional
// permission, acquiring the page lock through the lock manager first (the
// thesis's getPage). The frame is pinned; callers must Unpin it. The caller
// is responsible for taking the frame latch around actual page access.
func (bp *Pool) GetPage(tid lockmgr.TxnID, pid page.ID, perm Perm) (*Frame, error) {
	if err := bp.LockPage(tid, pid, perm); err != nil {
		return nil, err
	}
	return bp.GetPageNoLock(pid)
}

// LockPage is the lock half of GetPage: it takes the page lock that perm
// calls for without fetching the page. A locked scan holds it on a page it
// decides not to read, so that what it knew about the page stays true.
func (bp *Pool) LockPage(tid lockmgr.TxnID, pid page.ID, perm Perm) error {
	if bp.locks == nil {
		return nil
	}
	mode := lockmgr.S
	if perm == WritePerm {
		mode = lockmgr.X
	}
	target := lockmgr.PageTarget(pid.Table, pid.PageNo)
	if bp.locks.Has(tid, target, mode) {
		return nil
	}
	return bp.locks.Acquire(tid, target, mode)
}

// GetPageNoLock fetches and pins a frame without consulting the lock
// manager. Recovery queries, which are serialised by table-level locks or
// run lock-free in historical mode (§5.3), use this path.
func (bp *Pool) GetPageNoLock(pid page.ID) (*Frame, error) {
	bp.mu.Lock()
	if f, ok := bp.frames[pid]; ok {
		f.mu.Lock()
		f.pins++
		f.mu.Unlock()
		bp.hits.Inc()
		bp.mu.Unlock()
		return f, nil
	}
	bp.misses.Inc()
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictLocked(); err != nil {
			bp.mu.Unlock()
			return nil, err
		}
	}
	// Reserve the slot with a pinned placeholder while doing IO outside the
	// pool mutex.
	f := &Frame{pins: 1}
	f.Latch.Lock()
	bp.frames[pid] = f
	bp.mu.Unlock()

	img, err := bp.store.ReadPage(pid)
	if err == nil {
		var width int
		width, err = bp.store.TupleWidth(pid.Table)
		if err == nil {
			f.Page, err = page.FromBytes(pid, img, width)
		}
	}
	if err != nil {
		f.Latch.Unlock()
		bp.mu.Lock()
		delete(bp.frames, pid)
		bp.mu.Unlock()
		return nil, err
	}
	f.Latch.Unlock()
	return f, nil
}

// Unpin releases a pin. If markDirty, the frame is marked dirty with the
// given LSN as a candidate recLSN (0 in HARBOR mode).
func (bp *Pool) Unpin(f *Frame, markDirty bool, lsn page.LSN) {
	f.mu.Lock()
	if markDirty {
		if !f.dirty {
			f.dirty = true
			f.recLSN = lsn
		}
	}
	if f.pins > 0 {
		f.pins--
	}
	f.mu.Unlock()
}

// evictLocked removes one unpinned frame, flushing it first if dirty and
// the policy permits stealing. Called with bp.mu held.
func (bp *Pool) evictLocked() error {
	// Collect candidates.
	var clean, dirty []page.ID
	for pid, f := range bp.frames {
		f.mu.Lock()
		if f.pins == 0 {
			if f.dirty {
				dirty = append(dirty, pid)
			} else {
				clean = append(clean, pid)
			}
		}
		f.mu.Unlock()
	}
	pick := func(c []page.ID) page.ID { return c[bp.rng.Intn(len(c))] }
	var victimID page.ID
	switch {
	case len(clean) > 0:
		victimID = pick(clean)
	case len(dirty) > 0 && bp.policy.Steal():
		victimID = pick(dirty)
	default:
		return fmt.Errorf("%w: %d frames", ErrPoolSaturated, len(bp.frames))
	}
	victim := bp.frames[victimID]
	// Flush outside bp.mu would be nicer, but eviction is rare and the
	// latch ordering (frame latch under pool mutex, never the reverse on
	// this path) is deadlock-free because flush paths that hold latches do
	// not take the pool mutex.
	victim.Latch.Lock()
	defer victim.Latch.Unlock()
	victim.mu.Lock()
	isDirty := victim.dirty
	lsn := page.LSN(0)
	if victim.Page != nil {
		lsn = victim.Page.LSN()
	}
	pinned := victim.pins > 0
	victim.mu.Unlock()
	if pinned {
		return fmt.Errorf("%w: victim re-pinned", ErrPoolSaturated)
	}
	if isDirty {
		if err := bp.store.BeforeFlush(victimID, lsn); err != nil {
			return err
		}
		if err := bp.store.WritePage(victimID, victim.Page.Bytes()); err != nil {
			return err
		}
		bp.flushes.Inc()
	}
	bp.evictions.Inc()
	delete(bp.frames, victimID)
	return nil
}

// DirtyPages returns a snapshot of the dirty-pages table (§3.4: "the buffer
// pool maintains a standard dirty pages table").
func (bp *Pool) DirtyPages() []wal.DirtyPage {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var out []wal.DirtyPage
	for pid, f := range bp.frames {
		f.mu.Lock()
		if f.dirty {
			out = append(out, wal.DirtyPage{Page: pid, RecLSN: f.recLSN})
		}
		f.mu.Unlock()
	}
	return out
}

// FlushPage write-latches one page, flushes it if dirty, and clears the
// dirty bit (one step of the Figure 3-2 checkpoint loop).
func (bp *Pool) FlushPage(pid page.ID) error {
	bp.mu.Lock()
	f, ok := bp.frames[pid]
	bp.mu.Unlock()
	if !ok {
		return nil // already evicted (and thus flushed)
	}
	f.Latch.Lock()
	defer f.Latch.Unlock()
	f.mu.Lock()
	isDirty := f.dirty
	var lsn page.LSN
	if f.Page != nil {
		lsn = f.Page.LSN()
	}
	f.mu.Unlock()
	if !isDirty {
		return nil
	}
	if err := bp.store.BeforeFlush(pid, lsn); err != nil {
		return err
	}
	if err := bp.store.WritePage(pid, f.Page.Bytes()); err != nil {
		return err
	}
	f.mu.Lock()
	f.dirty = false
	f.recLSN = 0
	f.mu.Unlock()
	bp.mu.Lock()
	bp.flushes.Inc()
	bp.mu.Unlock()
	return nil
}

// FlushPages flushes a specific set of pages (FORCE-policy commit path).
func (bp *Pool) FlushPages(pids []page.ID) error {
	for _, pid := range pids {
		if err := bp.FlushPage(pid); err != nil {
			return err
		}
	}
	return nil
}

// FlushAll implements the Figure 3-2 checkpoint body: snapshot the dirty
// pages table, then latch-flush-unlatch each page.
func (bp *Pool) FlushAll() error {
	for _, dp := range bp.DirtyPages() {
		if err := bp.FlushPage(dp.Page); err != nil {
			return err
		}
	}
	return nil
}

// Discard drops one frame without flushing, if present and unpinned.
// Callers use it when a page has been released back to the heap's free
// list: the on-disk image is already durable (and empty), so the resident
// frame is pure waste. A pinned frame is left alone — its contents match
// the empty on-disk image, so a straggling reader sees nothing stale.
func (bp *Pool) Discard(pid page.ID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[pid]
	if !ok {
		return true
	}
	f.mu.Lock()
	pinned := f.pins > 0
	f.mu.Unlock()
	if pinned {
		return false
	}
	delete(bp.frames, pid)
	return true
}

// DiscardAll drops every frame without flushing — the crash hook.
func (bp *Pool) DiscardAll() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.frames = make(map[page.ID]*Frame, bp.capacity)
}

// Stats returns (hits, misses, evictions, flushes) — a compatibility shim
// over the registry-backed counters.
func (bp *Pool) Stats() (hits, misses, evictions, flushes int64) {
	return bp.hits.Load(), bp.misses.Load(), bp.evictions.Load(), bp.flushes.Load()
}

// NumFrames returns the number of resident frames.
func (bp *Pool) NumFrames() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
