package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/tuple"
	"harbor/internal/vfs"
)

// HeapFile is one table's segmented heap file on one site. All methods are
// safe for concurrent use; page *contents* are protected by buffer-pool
// latches, while the segment directory and allocation state are protected
// here.
type HeapFile struct {
	mu sync.Mutex

	dir  string
	file vfs.File
	meta *Meta

	// metaDirty is set whenever meta changed since the last FlushMeta. The
	// buffer pool must call EnsureMetaDurable before writing any dirty data
	// page (the stats-ahead rule; see package comment).
	metaDirty bool

	// pageSeg maps page number → segment index for fast SegmentFor.
	pageSeg map[int32]int32

	// insertHint caches a page number in the last segment that recently had
	// a free slot (§6.1.1's first-empty-slot pointers).
	insertHint int32

	// uncommittedBySeg counts live uncommitted tuples per segment so that
	// MinUncommittedSeg can be maintained exactly.
	uncommittedBySeg map[int32]int

	tupleWidth int
	slots      int

	// quarantined holds page numbers whose on-disk image failed the CRC
	// trailer check. A quarantined page is skipped by ScanDirect (so index
	// rebuild and site restart survive it) until recovery repairs it from a
	// buddy and calls ClearQuarantine.
	quarantined map[int32]bool

	// Site-wide registry counters (storage.page.reads, storage.page.writes,
	// storage.fsyncs, storage.corrupt_pages); bound by the owning Manager's
	// Instrument, so the pointers are read under mu.
	ioReads, ioWrites, ioSyncs, ioCorrupt *obs.Counter
}

// Paths for a table's files within a site directory.
func heapPath(dir string, table int32) string {
	return filepath.Join(dir, fmt.Sprintf("table_%d.heap", table))
}
func metaPath(dir string, table int32) string {
	return filepath.Join(dir, fmt.Sprintf("table_%d.meta", table))
}

// Create makes a brand-new heap file for a table.
func Create(dir string, table int32, desc *tuple.Desc, segPages int32) (*HeapFile, error) {
	if segPages <= 0 {
		return nil, fmt.Errorf("storage: segment size must be positive, got %d", segPages)
	}
	if _, err := vfs.Stat(metaPath(dir, table)); err == nil {
		return nil, fmt.Errorf("storage: table %d already exists in %s", table, dir)
	}
	f, err := vfs.OpenFile(heapPath(dir, table), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	h := &HeapFile{
		dir:  dir,
		file: f,
		meta: &Meta{
			TableID:           table,
			SegPages:          segPages,
			NextPage:          0,
			MinUncommittedSeg: -1,
			Desc:              desc,
		},
		pageSeg:          map[int32]int32{},
		uncommittedBySeg: map[int32]int{},
		quarantined:      map[int32]bool{},
		insertHint:       -1,
		tupleWidth:       desc.Width(),
		slots:            page.SlotsPerPage(desc.Width()),
	}
	h.metaDirty = true
	if err := h.FlushMeta(); err != nil {
		f.Close()
		return nil, err
	}
	h.instrument(obs.NewRegistry())
	return h, nil
}

// Open loads an existing table's heap file and rebuilds in-memory state.
func Open(dir string, table int32) (*HeapFile, error) {
	raw, err := vfs.ReadFile(metaPath(dir, table))
	if err != nil {
		return nil, err
	}
	m, err := unmarshalMeta(raw)
	if err != nil {
		return nil, fmt.Errorf("storage: table %d: %w", table, err)
	}
	if m.TableID != table {
		return nil, fmt.Errorf("storage: meta says table %d, expected %d", m.TableID, table)
	}
	f, err := vfs.OpenFile(heapPath(dir, table), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	h := &HeapFile{
		dir:              dir,
		file:             f,
		meta:             m,
		pageSeg:          map[int32]int32{},
		uncommittedBySeg: map[int32]int{},
		quarantined:      map[int32]bool{},
		insertHint:       -1,
		tupleWidth:       m.Desc.Width(),
		slots:            page.SlotsPerPage(m.Desc.Width()),
	}
	for si, s := range m.Segments {
		for _, e := range s.Extents {
			for p := e.Start; p < e.Start+e.Count; p++ {
				h.pageSeg[p] = int32(si)
			}
		}
	}
	h.instrument(obs.NewRegistry())
	return h, nil
}

// Close releases the OS file handle. It does not flush; callers that need
// durability flush explicitly (checkpointing owns that policy).
func (h *HeapFile) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.file.Close()
}

// Desc returns the table schema.
func (h *HeapFile) Desc() *tuple.Desc { return h.meta.Desc }

// TableID returns the table id.
func (h *HeapFile) TableID() int32 { return h.meta.TableID }

// TupleWidth returns the fixed slot width.
func (h *HeapFile) TupleWidth() int { return h.tupleWidth }

// SlotsPerPage returns the per-page slot capacity.
func (h *HeapFile) SlotsPerPage() int { return h.slots }

// NumSegments returns the number of segments.
func (h *HeapFile) NumSegments() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.meta.Segments)
}

// NumPages returns the allocated page count (including freed pages).
func (h *HeapFile) NumPages() int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.meta.NextPage
}

// Segments returns a deep copy of the segment directory for planning scans.
func (h *HeapFile) Segments() []Segment {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Segment, len(h.meta.Segments))
	for i := range h.meta.Segments {
		out[i] = h.meta.Segments[i].clone()
	}
	return out
}

// MinUncommittedSeg returns the persisted lower bound on segments that may
// contain uncommitted tuples (-1 if none).
func (h *HeapFile) MinUncommittedSeg() int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.meta.MinUncommittedSeg
}

// SegmentFor maps a page number to its segment index, or -1 for pages not
// owned by any segment (freed or never allocated).
func (h *HeapFile) SegmentFor(pageNo int32) int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if si, ok := h.pageSeg[pageNo]; ok {
		return si
	}
	return -1
}

// ReadPageData reads the raw image of a page and verifies its CRC32
// trailer. Pages past the OS file's end (allocated but never flushed) read
// as zeroes and are formatted fresh; so do all-zero sparse holes — both are
// exempt from the trailer check because no write ever stamped them. Any
// other mismatch (torn write, bit rot, mid-page truncation) quarantines the
// page and returns a *PageCorruptError (errors.Is ErrPageCorrupt).
func (h *HeapFile) ReadPageData(pageNo int32) ([]byte, error) {
	h.mu.Lock()
	if pageNo < 0 || pageNo >= h.meta.NextPage {
		next := h.meta.NextPage
		h.mu.Unlock()
		return nil, fmt.Errorf("storage: table %d page %d out of range [0,%d)", h.meta.TableID, pageNo, next)
	}
	h.ioReads.Inc()
	h.mu.Unlock()

	buf := make([]byte, page.Size)
	n, err := h.file.ReadAt(buf, int64(pageNo)*page.Size)
	if err == io.EOF || (err == nil && n < page.Size) {
		// Never-flushed page: hand back a freshly formatted empty page.
		if n == 0 || allZero(buf[:n]) {
			p := page.New(page.ID{Table: h.meta.TableID, PageNo: pageNo}, h.tupleWidth)
			return p.Bytes(), nil
		}
		// Data but not a whole page: a write torn by mid-page truncation.
		return nil, h.corruptPage(pageNo, fmt.Sprintf("short read (%d bytes)", n))
	}
	if err != nil {
		return nil, err
	}
	if allZero(buf) {
		// Hole in a sparse file (flushed later page): format fresh.
		p := page.New(page.ID{Table: h.meta.TableID, PageNo: pageNo}, h.tupleWidth)
		return p.Bytes(), nil
	}
	const crcOff = page.Size - page.TrailerSize
	if crc32.ChecksumIEEE(buf[:crcOff]) != leUint32(buf[crcOff:]) {
		return nil, h.corruptPage(pageNo, "CRC trailer mismatch")
	}
	return buf, nil
}

// corruptPage records a failed trailer check: bump the counter, quarantine
// the page, and build the typed error.
func (h *HeapFile) corruptPage(pageNo int32, reason string) error {
	h.mu.Lock()
	if !h.quarantined[pageNo] {
		h.quarantined[pageNo] = true
		h.ioCorrupt.Inc()
	}
	h.mu.Unlock()
	return &PageCorruptError{Table: h.meta.TableID, PageNo: pageNo, Reason: reason}
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// WritePageData writes a page image without syncing, stamping the CRC32
// trailer. The image is copied first so the shared in-memory page (whose
// trailer bytes may be stale) is never mutated and never raced.
func (h *HeapFile) WritePageData(pageNo int32, data []byte) error {
	if len(data) != page.Size {
		return fmt.Errorf("storage: page image is %d bytes", len(data))
	}
	h.mu.Lock()
	h.ioWrites.Inc()
	h.mu.Unlock()
	const crcOff = page.Size - page.TrailerSize
	img := make([]byte, page.Size)
	copy(img, data)
	putLeUint32(img[crcOff:], crc32.ChecksumIEEE(img[:crcOff]))
	_, err := h.file.WriteAt(img, int64(pageNo)*page.Size)
	if err == nil {
		h.ClearQuarantine(pageNo)
	}
	return err
}

// SyncData forces previously written pages to stable storage.
func (h *HeapFile) SyncData() error {
	h.mu.Lock()
	h.ioSyncs.Inc()
	h.mu.Unlock()
	return h.file.Sync()
}

// instrument binds the shared storage.* counters. Counts accumulated before
// the rebind — Open and Create start on a private registry, and the
// open-time index rebuild can already discover corrupt pages — are carried
// into the new registry so a quarantine found before the Site wires
// observability still shows up in storage.corrupt_pages.
func (h *HeapFile) instrument(reg *obs.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	carry := func(old *obs.Counter, name string) *obs.Counter {
		c := reg.Counter(name)
		if old != nil && old != c {
			c.Add(old.Load())
		}
		return c
	}
	h.ioReads = carry(h.ioReads, "storage.page.reads")
	h.ioWrites = carry(h.ioWrites, "storage.page.writes")
	h.ioSyncs = carry(h.ioSyncs, "storage.fsyncs")
	h.ioCorrupt = carry(h.ioCorrupt, "storage.corrupt_pages")
}

// FlushMeta durably writes the meta file if it changed (atomic replace).
func (h *HeapFile) FlushMeta() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.flushMetaLocked()
}

func (h *HeapFile) flushMetaLocked() error {
	if !h.metaDirty {
		return nil
	}
	if err := vfs.WriteFileAtomic(metaPath(h.dir, h.meta.TableID), h.meta.marshal(), 0o644); err != nil {
		return err
	}
	h.metaDirty = false
	return nil
}

// EnsureMetaDurable is the stats-ahead hook: the buffer pool calls it before
// flushing any dirty data page of this table so that segment-timestamp
// bounds on disk are never older than page contents on disk.
func (h *HeapFile) EnsureMetaDurable() error { return h.FlushMeta() }

// AllocPage grows the last segment by one page (opening a new segment when
// the last one is full or absent) and returns the page number. The page is
// zero-filled logically; ReadPageData formats it on first access.
func (h *HeapFile) AllocPage() (pageNo int32, segIdx int32, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.meta.Segments) == 0 || h.segPagesLocked(len(h.meta.Segments)-1) >= int(h.meta.SegPages) {
		h.meta.Segments = append(h.meta.Segments, emptySegment())
	}
	si := int32(len(h.meta.Segments) - 1)
	p := h.takeFreePageLocked()
	seg := &h.meta.Segments[si]
	if n := len(seg.Extents); n > 0 && seg.Extents[n-1].Start+seg.Extents[n-1].Count == p {
		seg.Extents[n-1].Count++
	} else {
		seg.Extents = append(seg.Extents, Extent{Start: p, Count: 1})
	}
	h.pageSeg[p] = si
	h.metaDirty = true
	return p, si, nil
}

// EnsureAllocated replays a page allocation idempotently: ARIES redo calls
// it for RecAlloc records whose effects may not have reached the meta file
// before a crash. Missing segments up to segIdx are created empty.
func (h *HeapFile) EnsureAllocated(pageNo, segIdx int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.pageSeg[pageNo]; ok {
		return
	}
	for int32(len(h.meta.Segments)) <= segIdx {
		h.meta.Segments = append(h.meta.Segments, emptySegment())
	}
	seg := &h.meta.Segments[segIdx]
	if n := len(seg.Extents); n > 0 && seg.Extents[n-1].Start+seg.Extents[n-1].Count == pageNo {
		seg.Extents[n-1].Count++
	} else {
		seg.Extents = append(seg.Extents, Extent{Start: pageNo, Count: 1})
	}
	h.pageSeg[pageNo] = segIdx
	if pageNo >= h.meta.NextPage {
		h.meta.NextPage = pageNo + 1
	}
	h.metaDirty = true
}

func (h *HeapFile) segPagesLocked(si int) int {
	n := 0
	for _, e := range h.meta.Segments[si].Extents {
		n += int(e.Count)
	}
	return n
}

func (h *HeapFile) takeFreePageLocked() int32 {
	if len(h.meta.Free) > 0 {
		e := &h.meta.Free[0]
		p := e.Start
		e.Start++
		e.Count--
		if e.Count == 0 {
			h.meta.Free = h.meta.Free[1:]
		}
		return p
	}
	p := h.meta.NextPage
	h.meta.NextPage++
	return p
}

// InsertHint returns a page number in the last segment believed to have a
// free slot, or -1. SetInsertHint updates it.
func (h *HeapFile) InsertHint() int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.insertHint < 0 {
		return -1
	}
	// The hint must still belong to the last segment.
	if si, ok := h.pageSeg[h.insertHint]; !ok || int(si) != len(h.meta.Segments)-1 {
		return -1
	}
	return h.insertHint
}

// SetInsertHint records a page known to have free slots.
func (h *HeapFile) SetInsertHint(pageNo int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.insertHint = pageNo
}

// LastSegment returns the index of the last segment, or -1 if none.
func (h *HeapFile) LastSegment() int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int32(len(h.meta.Segments) - 1)
}

// SegmentPages returns the page numbers of a segment in order.
func (h *HeapFile) SegmentPages(si int32) []int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if si < 0 || int(si) >= len(h.meta.Segments) {
		return nil
	}
	var out []int32
	for _, e := range h.meta.Segments[si].Extents {
		for p := e.Start; p < e.Start+e.Count; p++ {
			out = append(out, p)
		}
	}
	return out
}

// OnCommitStamp folds a committed tuple's timestamps into its segment's
// bounds. ins applies to insertions (0 = not an insertion), del to
// deletions. Called by the versioning layer at commit time and by recovery
// when copying remote tuples.
func (h *HeapFile) OnCommitStamp(segIdx int32, ins, del tuple.Timestamp) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if segIdx < 0 || int(segIdx) >= len(h.meta.Segments) {
		return
	}
	s := &h.meta.Segments[segIdx]
	changed := false
	if ins > 0 && ins != tuple.Uncommitted {
		if ins < s.TminIns {
			s.TminIns = ins
			changed = true
		}
		if ins > s.TmaxIns {
			s.TmaxIns = ins
			changed = true
		}
	}
	if del > 0 && del > s.TmaxDel {
		s.TmaxDel = del
		changed = true
	}
	if changed {
		h.metaDirty = true
	}
}

// OnUncommittedInsert records that a tuple with the Uncommitted insertion
// timestamp now lives in segment segIdx; OnUncommittedResolved records that
// one was stamped or physically removed. Both maintain MinUncommittedSeg.
func (h *HeapFile) OnUncommittedInsert(segIdx int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.uncommittedBySeg[segIdx]++
	if h.meta.MinUncommittedSeg < 0 || segIdx < h.meta.MinUncommittedSeg {
		h.meta.MinUncommittedSeg = segIdx
		h.metaDirty = true
	}
}

// OnUncommittedResolved decrements the uncommitted count for a segment and
// recomputes the persisted lower bound.
func (h *HeapFile) OnUncommittedResolved(segIdx int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.uncommittedBySeg[segIdx]; ok {
		if c <= 1 {
			delete(h.uncommittedBySeg, segIdx)
		} else {
			h.uncommittedBySeg[segIdx] = c - 1
		}
	}
	min := int32(-1)
	for s := range h.uncommittedBySeg {
		if min < 0 || s < min {
			min = s
		}
	}
	if min != h.meta.MinUncommittedSeg {
		h.meta.MinUncommittedSeg = min
		h.metaDirty = true
	}
}

// ClearUncommittedBound resets MinUncommittedSeg; recovery Phase 1 calls it
// after physically removing every uncommitted tuple.
func (h *HeapFile) ClearUncommittedBound() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.uncommittedBySeg = map[int32]int{}
	if h.meta.MinUncommittedSeg != -1 {
		h.meta.MinUncommittedSeg = -1
		h.metaDirty = true
	}
}

// SegmentPlan selects the segments a recovery-style scan must visit given
// the three §4.2 range predicates. Any of the bounds may be nil (unused).
//
//	insLE: keep segments that may hold tuples with ins ≤ *insLE
//	insGT: keep segments that may hold tuples with ins > *insGT
//	delGT: keep segments that may hold tuples with del > *delGT
//
// includeUncommitted additionally keeps every segment ≥ MinUncommittedSeg,
// since uncommitted tuples are invisible to the timestamp bounds.
func (h *HeapFile) SegmentPlan(insLE, insGT, delGT *tuple.Timestamp, includeUncommitted bool) []int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []int32
	for i, s := range h.meta.Segments {
		keep := true
		empty := s.TminIns == math.MaxInt64 && s.TmaxIns == 0
		if insLE != nil && (empty || s.TminIns > *insLE) {
			keep = false
		}
		if keep && insGT != nil && (empty || s.TmaxIns <= *insGT) {
			keep = false
		}
		if keep && delGT != nil && s.TmaxDel <= *delGT {
			keep = false
		}
		if !keep && includeUncommitted && h.meta.MinUncommittedSeg >= 0 && int32(i) >= h.meta.MinUncommittedSeg {
			keep = true
		}
		if keep {
			out = append(out, int32(i))
		}
	}
	return out
}

// BulkLoadSegment appends a brand-new segment whose pages are written
// directly (bypassing the buffer pool) from pre-stamped committed tuples,
// then durably flushes data and meta. This is the §4.2 bulk-load feature:
// the segment becomes visible atomically with the meta replace.
func (h *HeapFile) BulkLoadSegment(tuples []tuple.Tuple) (int32, error) {
	if len(tuples) == 0 {
		return 0, fmt.Errorf("storage: bulk load of zero tuples")
	}
	h.mu.Lock()
	desc := h.meta.Desc
	for _, t := range tuples {
		if t.InsTS() == tuple.Uncommitted {
			h.mu.Unlock()
			return 0, fmt.Errorf("storage: bulk load requires committed (stamped) tuples")
		}
	}
	seg := emptySegment()
	perPage := h.slots
	nPages := (len(tuples) + perPage - 1) / perPage
	pages := make([]int32, nPages)
	for i := range pages {
		pages[i] = h.takeFreePageLocked()
	}
	// Coalesce into extents.
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, p := range pages {
		if n := len(seg.Extents); n > 0 && seg.Extents[n-1].Start+seg.Extents[n-1].Count == p {
			seg.Extents[n-1].Count++
		} else {
			seg.Extents = append(seg.Extents, Extent{Start: p, Count: 1})
		}
	}
	for _, t := range tuples {
		ins, del := t.InsTS(), t.DelTS()
		if ins < seg.TminIns {
			seg.TminIns = ins
		}
		if ins > seg.TmaxIns {
			seg.TmaxIns = ins
		}
		if del > seg.TmaxDel {
			seg.TmaxDel = del
		}
	}
	si := int32(len(h.meta.Segments))
	h.mu.Unlock()

	// Write the data pages (no locks held; pages are invisible until the
	// meta replace below).
	buf := make([]byte, h.tupleWidth)
	for pi, pno := range pages {
		pg := page.New(page.ID{Table: h.TableID(), PageNo: pno}, h.tupleWidth)
		lo := pi * perPage
		hi := lo + perPage
		if hi > len(tuples) {
			hi = len(tuples)
		}
		for _, t := range tuples[lo:hi] {
			t.EncodeTo(desc, buf)
			if _, err := pg.Insert(buf); err != nil {
				return 0, err
			}
		}
		if err := h.WritePageData(pno, pg.Bytes()); err != nil {
			return 0, err
		}
	}
	if err := h.SyncData(); err != nil {
		return 0, err
	}

	h.mu.Lock()
	h.meta.Segments = append(h.meta.Segments, seg)
	for _, p := range pages {
		h.pageSeg[p] = si
	}
	h.metaDirty = true
	err := h.flushMetaLocked()
	h.mu.Unlock()
	return si, err
}

// ReleasePages returns fully-empty pages to the free list, removing them
// from their segments' extents so scans stop visiting them. Segments keep
// their identity even when they end up with no pages at all — segment
// indices are load-bearing for the pageSeg map, the uncommitted
// accounting, and the timestamp bounds, so only DropOldestSegment may
// renumber. The meta flush makes the release durable before return.
func (h *HeapFile) ReleasePages(pages []int32) error {
	if len(pages) == 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	rel := make(map[int32]bool, len(pages))
	for _, p := range pages {
		if _, ok := h.pageSeg[p]; ok {
			rel[p] = true
		}
	}
	if len(rel) == 0 {
		return nil
	}
	for si := range h.meta.Segments {
		seg := &h.meta.Segments[si]
		var kept []Extent
		for _, e := range seg.Extents {
			start := e.Start
			for p := e.Start; p < e.Start+e.Count; p++ {
				if !rel[p] {
					continue
				}
				if p > start {
					kept = append(kept, Extent{Start: start, Count: p - start})
				}
				start = p + 1
			}
			if end := e.Start + e.Count; end > start {
				kept = append(kept, Extent{Start: start, Count: end - start})
			}
		}
		seg.Extents = kept
	}
	for p := range rel {
		delete(h.pageSeg, p)
		h.meta.Free = append(h.meta.Free, Extent{Start: p, Count: 1})
	}
	if h.insertHint >= 0 && rel[h.insertHint] {
		h.insertHint = -1
	}
	h.metaDirty = true
	return h.flushMetaLocked()
}

// DropOldestSegment removes segment 0 (the §4.2 bulk-drop feature used by
// clickthrough warehouses), returning its pages to the free list, and
// durably flushes the meta so the drop is atomic. AllocPage hands a free
// page out as it is on disk, so each victim page is zeroed (ReadPageData
// formats an all-zero page empty) and synced before the meta lists it as
// free; the caller must already have discarded the pages' pool frames.
func (h *HeapFile) DropOldestSegment() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.meta.Segments) == 0 {
		return fmt.Errorf("storage: no segments to drop")
	}
	victim := h.meta.Segments[0]
	for _, e := range victim.Extents {
		if _, err := h.file.WriteAt(make([]byte, int(e.Count)*page.Size), int64(e.Start)*page.Size); err != nil {
			return err
		}
		h.ioWrites.Add(int64(e.Count))
		for p := e.Start; p < e.Start+e.Count; p++ {
			delete(h.quarantined, p)
		}
	}
	h.ioSyncs.Inc()
	if err := h.file.Sync(); err != nil {
		return err
	}
	h.meta.Segments = h.meta.Segments[1:]
	h.meta.Free = append(h.meta.Free, victim.Extents...)
	// Reindex pageSeg: all later segments shift down by one.
	for _, e := range victim.Extents {
		for p := e.Start; p < e.Start+e.Count; p++ {
			delete(h.pageSeg, p)
		}
	}
	for p, si := range h.pageSeg {
		h.pageSeg[p] = si - 1
	}
	// Shift the uncommitted accounting too.
	shifted := make(map[int32]int, len(h.uncommittedBySeg))
	for s, c := range h.uncommittedBySeg {
		if s > 0 {
			shifted[s-1] = c
		}
	}
	h.uncommittedBySeg = shifted
	if h.meta.MinUncommittedSeg > 0 {
		h.meta.MinUncommittedSeg--
	}
	h.metaDirty = true
	return h.flushMetaLocked()
}

// ScanDirect iterates every used slot of the listed segments straight from
// disk, bypassing the buffer pool. The key index rebuild and tests use it;
// online scans go through the buffer pool instead. fn returning false stops
// the scan. Corrupt pages are skipped, not fatal: they are already
// quarantined by ReadPageData and the site repairs them from a buddy —
// the hole is a missing key range, not a dead table.
func (h *HeapFile) ScanDirect(segs []int32, fn func(rid page.RecordID, t tuple.Tuple) bool) error {
	for _, si := range segs {
		for _, pno := range h.SegmentPages(si) {
			img, err := h.ReadPageData(pno)
			if errors.Is(err, ErrPageCorrupt) {
				continue
			}
			if err != nil {
				return err
			}
			pid := page.ID{Table: h.TableID(), PageNo: pno}
			pg, err := page.FromBytes(pid, img, h.tupleWidth)
			if err != nil {
				return err
			}
			for s := 0; s < pg.NumSlots(); s++ {
				if !pg.Used(s) {
					continue
				}
				raw, err := pg.Slot(s)
				if err != nil {
					return err
				}
				t, err := tuple.Decode(h.meta.Desc, raw)
				if err != nil {
					return err
				}
				if !fn(page.RecordID{Page: pid, Slot: s}, t) {
					return nil
				}
			}
		}
	}
	return nil
}

// AllSegments returns indices of all segments, oldest first.
func (h *HeapFile) AllSegments() []int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int32, len(h.meta.Segments))
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
