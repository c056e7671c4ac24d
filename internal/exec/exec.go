// Package exec implements the one operator of §6.1.5 that HARBOR's reads
// need: a batch-at-a-time sequential scan with the timestamp-aware
// visibility modes of historical, SEE DELETED and locked reads, pruned by
// segment and by page key bounds. Around it sit index lookups on tuple
// identifiers, the key-addressed update/delete helpers built on the
// versioning layer, and the partial/final aggregation algebra that the
// worker folds scan batches into.
//
// Query plans are constructed programmatically, exactly as in the thesis
// ("the database implementation does not yet have a SQL parser frontend;
// query plans must be manually constructed", §6.1.5).
package exec

import (
	"fmt"

	"harbor/internal/buffer"
	"harbor/internal/expr"
	"harbor/internal/page"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/version"
)

// Visibility selects which tuples a scan surfaces and how their timestamps
// are presented.
type Visibility uint8

const (
	// Current sees committed, not-deleted tuples; used with page read locks
	// (strict 2PL) for up-to-date reads and recovery Phase 3.
	Current Visibility = iota + 1
	// Historical sees the database as of a past time AsOf without locks
	// (§3.3): tuples inserted after AsOf are invisible and deletions after
	// AsOf are hidden.
	Historical
	// SeeDeleted disables delete filtering entirely: both timestamps become
	// visible as normal fields (the recovery mode of §3.4). Combined with
	// AsOf > 0 it becomes the SEE DELETED HISTORICAL mode of §5.3: tuples
	// inserted after AsOf are invisible, and deletion times after AsOf read
	// as 0.
	SeeDeleted
)

// SegmentSelection names the segments a scan visits. The zero value scans
// every segment; SegmentsOf restricts the scan to an explicit list — and an
// explicit empty list scans nothing, which is what a §4.2 recovery plan
// whose timestamp bounds prune every segment means. (The previous
// representation, a bare []int32 with nil meaning "all", could not express
// "none" without call sites pinning a non-nil empty slice.)
type SegmentSelection struct {
	restricted bool
	segs       []int32
}

// SegmentsOf restricts the scan to exactly the listed segments. A nil or
// empty list scans nothing.
func SegmentsOf(segs []int32) SegmentSelection {
	return SegmentSelection{restricted: true, segs: segs}
}

// Resolve returns the concrete segment list for a heap file.
func (s SegmentSelection) Resolve(h *storage.HeapFile) []int32 {
	if s.restricted {
		return s.segs
	}
	return h.AllSegments()
}

// ScanSpec describes a sequential scan.
type ScanSpec struct {
	Table int32
	Vis   Visibility
	// AsOf is the historical time (Historical always; SeeDeleted optionally;
	// ignored for Current).
	AsOf tuple.Timestamp
	// Locked makes the scan take page read locks as transaction Txn.
	Locked bool
	Txn    version.TxnID
	// Segments restricts the scan; the zero value visits every segment.
	// Recovery queries pass SegmentsOf(HeapFile.SegmentPlan(...)) here.
	Segments SegmentSelection
	// Pred filters tuples (applied after visibility rewriting).
	Pred expr.Pred
}

// SeqScan is the sequential scan operator.
type SeqScan struct {
	store *version.Store
	spec  ScanSpec

	heap  *storage.HeapFile
	index *storage.KeyIndex
	desc  *tuple.Desc
	// keys is the key range spec.Pred implies; a page whose recorded key
	// bounds miss it is skipped. prune is false when it is the full range.
	keys  expr.KeyRange
	prune bool
	segs  []int32
	segI  int
	pages []int32
	pageI int
	frame *buffer.Frame
	slot  int
	open  bool
}

// NewSeqScan builds a sequential scan over the versioned store.
func NewSeqScan(store *version.Store, spec ScanSpec) *SeqScan {
	return &SeqScan{store: store, spec: spec}
}

// Desc returns the scan's output schema (the table schema, timestamps
// included).
func (s *SeqScan) Desc() *tuple.Desc { return s.desc }

// Open prepares the scan.
func (s *SeqScan) Open() error {
	tb, err := s.store.Mgr.Get(s.spec.Table)
	if err != nil {
		return err
	}
	s.heap, s.index = tb.Heap, tb.Index
	s.desc = tb.Heap.Desc()
	s.keys = s.spec.Pred.KeyRange(s.desc)
	s.prune = s.keys != expr.FullKeyRange()
	s.segs = s.spec.Segments.Resolve(s.heap)
	s.segI, s.pageI, s.slot = 0, 0, 0
	s.pages = nil
	if len(s.segs) > 0 {
		s.pages = s.heap.SegmentPages(s.segs[0])
	}
	s.open = true
	return nil
}

// Close releases resources. Page locks (if any) are released at end of
// transaction by the lock manager, per strict 2PL.
func (s *SeqScan) Close() error {
	s.releaseFrame()
	s.open = false
	return nil
}

// advancePage moves the (segI, pageI) cursor to the next page that may hold
// a qualifying tuple, pins and read-latches it and resets the slot cursor;
// it reports false at the end of the scan. This is the one place a key
// predicate prunes: a page whose recorded key bounds are disjoint from the
// predicate's key range is passed over unread, while a page without bounds
// is always read (storage.KeyIndex.PageBounds). A locked scan takes its
// page lock first, pruned or not, so no writer can add a qualifying tuple
// to a page the scan has passed over before the scan's transaction ends.
func (s *SeqScan) advancePage() (bool, error) {
	if !s.open {
		return false, fmt.Errorf("exec: scan not open")
	}
	for ; ; s.pageI++ {
		for s.pageI >= len(s.pages) {
			s.segI++
			if s.segI >= len(s.segs) {
				return false, nil
			}
			s.pages = s.heap.SegmentPages(s.segs[s.segI])
			s.pageI = 0
		}
		pid := page.ID{Table: s.spec.Table, PageNo: s.pages[s.pageI]}
		if s.spec.Locked {
			if err := s.store.Pool.LockPage(s.spec.Txn, pid, buffer.ReadPerm); err != nil {
				return false, err
			}
		}
		if s.prune {
			if lo, hi, ok := s.index.PageBounds(pid); ok && !s.keys.Overlaps(lo, hi) {
				s.store.ScanPagesPruned.Inc()
				continue
			}
		}
		f, err := s.store.Pool.GetPageNoLock(pid)
		if err != nil {
			return false, err
		}
		s.store.ScanPagesVisited.Inc()
		f.Latch.RLock()
		s.frame = f
		s.slot = 0
		return true, nil
	}
}

// releaseFrame unpins the current page, if any, and steps the cursor past it.
func (s *SeqScan) releaseFrame() {
	if s.frame != nil {
		s.frame.Latch.RUnlock()
		s.store.Pool.Unpin(s.frame, false, 0)
		s.frame = nil
		s.pageI++
	}
}

// slotTuple decodes the current page's slot i and applies visibility and
// the predicate; ok is false for a free slot or a tuple the scan hides.
func (s *SeqScan) slotTuple(i int) (tuple.Tuple, bool, error) {
	pg := s.frame.Page
	if !pg.Used(i) {
		return tuple.Tuple{}, false, nil
	}
	raw, err := pg.Slot(i)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	t, err := tuple.Decode(s.desc, raw)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	vis, out := present(s.spec.Vis, s.spec.AsOf, t)
	return out, vis && s.spec.Pred.Eval(s.desc, out), nil
}

// present applies visibility mode vis at time asOf, returning whether the
// tuple is surfaced and the (possibly timestamp-rewritten) tuple.
func present(vis Visibility, asOf tuple.Timestamp, t tuple.Tuple) (bool, tuple.Tuple) {
	switch vis {
	case Current:
		if t.InsTS() == tuple.Uncommitted || t.DelTS() != tuple.NotDeleted {
			return false, t
		}
		return true, t
	case Historical:
		if !t.VisibleAt(asOf) {
			return false, t
		}
		if t.DelTS() > asOf {
			t.SetDelTS(tuple.NotDeleted)
		}
		return true, t
	case SeeDeleted:
		if asOf > 0 {
			// SEE DELETED HISTORICAL (§5.3): hide later insertions, mask
			// later deletions.
			ins := t.InsTS()
			if ins == tuple.Uncommitted || ins > asOf {
				return false, t
			}
			if t.DelTS() > asOf {
				t.SetDelTS(tuple.NotDeleted)
			}
		}
		return true, t
	default:
		return false, t
	}
}

// IndexLookup returns the visible versions of a key via the primary index.
func IndexLookup(store *version.Store, table int32, key int64, vis Visibility, asOf tuple.Timestamp) ([]tuple.Tuple, []page.RecordID, error) {
	tb, err := store.Mgr.Get(table)
	if err != nil {
		return nil, nil, err
	}
	desc := tb.Heap.Desc()
	var ts []tuple.Tuple
	var rids []page.RecordID
	for _, rid := range tb.Index.Lookup(key) {
		f, err := store.Pool.GetPageNoLock(rid.Page)
		if err != nil {
			return nil, nil, err
		}
		f.Latch.RLock()
		if f.Page.Used(rid.Slot) {
			raw, slotErr := f.Page.Slot(rid.Slot)
			if slotErr == nil {
				if t, decErr := tuple.Decode(desc, raw); decErr == nil {
					if ok, out := present(vis, asOf, t); ok {
						ts = append(ts, out)
						rids = append(rids, rid)
					}
				}
			}
		}
		f.Latch.RUnlock()
		store.Pool.Unpin(f, false, 0)
	}
	return ts, rids, nil
}
