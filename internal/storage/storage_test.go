package storage

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"harbor/internal/page"
	"harbor/internal/tuple"
)

func testDesc() *tuple.Desc {
	return tuple.MustDesc("id",
		tuple.FieldDef{Name: "id", Type: tuple.Int64},
		tuple.FieldDef{Name: "v", Type: tuple.Int32},
	)
}

func newHeap(t *testing.T, segPages int32) *HeapFile {
	t.Helper()
	h, err := Create(t.TempDir(), 1, testDesc(), segPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// writeTuple writes a committed tuple into a fresh slot via the raw page
// API, mimicking the access layer, and updates segment stats.
func writeTuple(t *testing.T, h *HeapFile, id int64, ins, del tuple.Timestamp) page.RecordID {
	t.Helper()
	tp := tuple.MustMake(h.Desc(), tuple.VInt(id), tuple.VInt(0))
	tp.SetInsTS(ins)
	tp.SetDelTS(del)
	pno := h.InsertHint()
	var pg *page.Page
	var si int32
	if pno >= 0 {
		img, err := h.ReadPageData(pno)
		if err != nil {
			t.Fatal(err)
		}
		pg, err = page.FromBytes(page.ID{Table: h.TableID(), PageNo: pno}, img, h.TupleWidth())
		if err != nil {
			t.Fatal(err)
		}
		if pg.FirstFree() < 0 {
			pno = -1
		}
		si = h.SegmentFor(pno)
	}
	if pno < 0 {
		var err error
		pno, si, err = h.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		img, err := h.ReadPageData(pno)
		if err != nil {
			t.Fatal(err)
		}
		pg, err = page.FromBytes(page.ID{Table: h.TableID(), PageNo: pno}, img, h.TupleWidth())
		if err != nil {
			t.Fatal(err)
		}
	}
	slot, err := pg.Insert(tp.Encode(h.Desc()))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WritePageData(pno, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	h.SetInsertHint(pno)
	if ins == tuple.Uncommitted {
		h.OnUncommittedInsert(si)
	} else {
		h.OnCommitStamp(si, ins, del)
	}
	return page.RecordID{Page: page.ID{Table: h.TableID(), PageNo: pno}, Slot: slot}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h, err := Create(dir, 7, testDesc(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		writeTupleH(t, h, i, tuple.Timestamp(i+1), 0)
	}
	if err := h.SyncData(); err != nil {
		t.Fatal(err)
	}
	if err := h.FlushMeta(); err != nil {
		t.Fatal(err)
	}
	segs := h.Segments()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := Open(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if !reflect.DeepEqual(h2.Segments(), segs) {
		t.Fatalf("segment directory changed across reopen:\n%v\n%v", h2.Segments(), segs)
	}
	count := 0
	if err := h2.ScanDirect(h2.AllSegments(), func(_ page.RecordID, tp tuple.Tuple) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("reopened scan found %d tuples, want 100", count)
	}
}

// writeTupleH is writeTuple but takes testing.TB-independent helper usage.
func writeTupleH(t *testing.T, h *HeapFile, id int64, ins, del tuple.Timestamp) page.RecordID {
	return writeTuple(t, h, id, ins, del)
}

func TestSegmentRollover(t *testing.T) {
	h := newHeap(t, 2) // 2 pages per segment
	perPage := h.SlotsPerPage()
	total := perPage*2*3 + 1 // fills 3 segments and starts a 4th
	for i := 0; i < total; i++ {
		writeTuple(t, h, int64(i), tuple.Timestamp(i+1), 0)
	}
	if got := h.NumSegments(); got != 4 {
		t.Fatalf("segments = %d, want 4", got)
	}
	segs := h.Segments()
	for i := 0; i < 3; i++ {
		if segs[i].NumPages() != 2 {
			t.Fatalf("segment %d has %d pages, want 2", i, segs[i].NumPages())
		}
	}
	// Tmin/Tmax per segment must be ordered and non-overlapping for this
	// strictly increasing insertion history.
	for i := 0; i < len(segs)-1; i++ {
		if segs[i].TmaxIns >= segs[i+1].TminIns {
			t.Fatalf("segment %d TmaxIns %d >= segment %d TminIns %d",
				i, segs[i].TmaxIns, i+1, segs[i+1].TminIns)
		}
	}
}

func TestSegmentStats(t *testing.T) {
	h := newHeap(t, 8)
	writeTuple(t, h, 1, 10, 0)
	writeTuple(t, h, 2, 20, 0)
	h.OnCommitStamp(0, 0, 25) // delete stamped at 25
	segs := h.Segments()
	if segs[0].TminIns != 10 || segs[0].TmaxIns != 20 || segs[0].TmaxDel != 25 {
		t.Fatalf("stats = %+v", segs[0])
	}
	// Stamping with smaller values must not regress the bounds.
	h.OnCommitStamp(0, 15, 5)
	segs = h.Segments()
	if segs[0].TminIns != 10 || segs[0].TmaxIns != 20 || segs[0].TmaxDel != 25 {
		t.Fatalf("stats regressed: %+v", segs[0])
	}
	// Out-of-range segment index is ignored.
	h.OnCommitStamp(99, 1, 1)
}

func TestSegmentPlanPruning(t *testing.T) {
	h := newHeap(t, 1) // 1 page per segment → easy to force many segments
	perPage := h.SlotsPerPage()
	// Three segments with ins ranges [1..p], [p+1..2p], [2p+1..3p].
	for i := 0; i < perPage*3; i++ {
		writeTuple(t, h, int64(i), tuple.Timestamp(i+1), 0)
	}
	if h.NumSegments() != 3 {
		t.Fatalf("want 3 segments, got %d", h.NumSegments())
	}
	p := tuple.Timestamp(perPage)
	le := p // ins <= p → only segment 0
	if got := h.SegmentPlan(&le, nil, nil, false); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("insLE plan = %v", got)
	}
	gt := 2 * p // ins > 2p → only segment 2
	if got := h.SegmentPlan(nil, &gt, nil, false); !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("insGT plan = %v", got)
	}
	// No deletes yet: delGT prunes everything.
	z := tuple.Timestamp(0)
	if got := h.SegmentPlan(nil, nil, &z, false); got != nil {
		t.Fatalf("delGT plan = %v, want empty", got)
	}
	// Delete in segment 1 at time 100.
	h.OnCommitStamp(1, 0, 100)
	d := tuple.Timestamp(50)
	if got := h.SegmentPlan(nil, nil, &d, false); !reflect.DeepEqual(got, []int32{1}) {
		t.Fatalf("delGT plan after delete = %v", got)
	}
	d2 := tuple.Timestamp(100)
	if got := h.SegmentPlan(nil, nil, &d2, false); got != nil {
		t.Fatalf("delGT plan at exact bound = %v, want empty", got)
	}
}

func TestSegmentPlanUncommitted(t *testing.T) {
	h := newHeap(t, 1)
	perPage := h.SlotsPerPage()
	for i := 0; i < perPage*2; i++ {
		writeTuple(t, h, int64(i), tuple.Timestamp(i+1), 0)
	}
	// An uncommitted tuple lands in segment 1 (still the last).
	writeTuple(t, h, 999, tuple.Uncommitted, 0)
	gt := tuple.Timestamp(math.MaxInt64 - 1) // ins > everything committed
	got := h.SegmentPlan(nil, &gt, nil, true)
	// Segments 0 and 1 are full (segPages=1), so the uncommitted tuple
	// opened segment 2; only it must survive pruning, and only because of
	// the uncommitted bound.
	if !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("uncommitted plan = %v, want [2] (segments=%d, minUnc=%d)",
			got, h.NumSegments(), h.MinUncommittedSeg())
	}
	if withoutUnc := h.SegmentPlan(nil, &gt, nil, false); withoutUnc != nil {
		t.Fatalf("plan without uncommitted bound = %v, want empty", withoutUnc)
	}
	// Resolve it; the bound clears and the plan empties.
	h.OnUncommittedResolved(h.MinUncommittedSeg())
	if h.MinUncommittedSeg() != -1 {
		t.Fatalf("MinUncommittedSeg = %d after resolve", h.MinUncommittedSeg())
	}
	if got := h.SegmentPlan(nil, &gt, nil, true); got != nil {
		t.Fatalf("plan after resolve = %v", got)
	}
}

func TestMinUncommittedAcrossSegments(t *testing.T) {
	h := newHeap(t, 1)
	perPage := h.SlotsPerPage()
	writeTuple(t, h, 1, tuple.Uncommitted, 0) // seg 0
	for i := 0; i < perPage*2; i++ {
		writeTuple(t, h, int64(100+i), tuple.Timestamp(i+1), 0)
	}
	writeTuple(t, h, 2, tuple.Uncommitted, 0) // a later segment
	if h.MinUncommittedSeg() != 0 {
		t.Fatalf("min = %d, want 0", h.MinUncommittedSeg())
	}
	h.OnUncommittedResolved(0)
	if h.MinUncommittedSeg() == 0 || h.MinUncommittedSeg() == -1 {
		t.Fatalf("min should move past 0, got %d", h.MinUncommittedSeg())
	}
	h.ClearUncommittedBound()
	if h.MinUncommittedSeg() != -1 {
		t.Fatalf("min after clear = %d", h.MinUncommittedSeg())
	}
}

func TestBulkLoadAndDrop(t *testing.T) {
	h := newHeap(t, 4)
	desc := h.Desc()
	mkBatch := func(base int64, ts tuple.Timestamp, n int) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			tp := tuple.MustMake(desc, tuple.VInt(base+int64(i)), tuple.VInt(0))
			tp.SetInsTS(ts)
			out[i] = tp
		}
		return out
	}
	perPage := h.SlotsPerPage()
	si, err := h.BulkLoadSegment(mkBatch(0, 5, perPage*3))
	if err != nil {
		t.Fatal(err)
	}
	if si != 0 {
		t.Fatalf("first bulk segment index = %d", si)
	}
	if _, err := h.BulkLoadSegment(mkBatch(10000, 6, perPage)); err != nil {
		t.Fatal(err)
	}
	if h.NumSegments() != 2 {
		t.Fatalf("segments = %d, want 2", h.NumSegments())
	}
	segs := h.Segments()
	if segs[0].TminIns != 5 || segs[0].TmaxIns != 5 {
		t.Fatalf("bulk segment stats: %+v", segs[0])
	}
	pagesBefore := h.NumPages()

	if err := h.DropOldestSegment(); err != nil {
		t.Fatal(err)
	}
	if h.NumSegments() != 1 {
		t.Fatalf("segments after drop = %d", h.NumSegments())
	}
	// Dropped pages must be reused by the next bulk load instead of growing
	// the file.
	if _, err := h.BulkLoadSegment(mkBatch(20000, 7, perPage*2)); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() != pagesBefore {
		t.Fatalf("file grew from %d to %d pages despite free extents", pagesBefore, h.NumPages())
	}
	// Survives reopen.
	if err := h.FlushMeta(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := h.ScanDirect(h.AllSegments(), func(_ page.RecordID, tp tuple.Tuple) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != perPage+perPage*2 {
		t.Fatalf("post-drop scan found %d tuples, want %d", count, perPage*3)
	}
}

func TestBulkLoadRejectsUncommitted(t *testing.T) {
	h := newHeap(t, 4)
	tp := tuple.MustMake(h.Desc(), tuple.VInt(1), tuple.VInt(0))
	if _, err := h.BulkLoadSegment([]tuple.Tuple{tp}); err == nil {
		t.Fatal("bulk load of uncommitted tuples must fail")
	}
	if _, err := h.BulkLoadSegment(nil); err == nil {
		t.Fatal("bulk load of zero tuples must fail")
	}
}

func TestMetaDurability(t *testing.T) {
	dir := t.TempDir()
	h, err := Create(dir, 3, testDesc(), 2)
	if err != nil {
		t.Fatal(err)
	}
	writeTuple(t, h, 1, 10, 0)
	// Meta is dirty; EnsureMetaDurable must persist the stats.
	if err := h.EnsureMetaDurable(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metaPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := unmarshalMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 1 || m.Segments[0].TminIns != 10 {
		t.Fatalf("durable meta missing stats: %+v", m.Segments)
	}
	h.Close()
}

func TestMetaChecksumDetection(t *testing.T) {
	dir := t.TempDir()
	h, err := Create(dir, 3, testDesc(), 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	path := metaPath(dir, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 3); err == nil {
		t.Fatal("corrupted meta must fail to open")
	}
}

func TestReadPastEOFFormatsFresh(t *testing.T) {
	h := newHeap(t, 4)
	pno, _, err := h.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	// Never written: read must return a valid empty page.
	img, err := h.ReadPageData(pno)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := page.FromBytes(page.ID{Table: h.TableID(), PageNo: pno}, img, h.TupleWidth())
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumUsed() != 0 {
		t.Fatal("fresh page not empty")
	}
	if _, err := h.ReadPageData(pno + 1); err == nil {
		t.Fatal("read past NextPage must fail")
	}
	if _, err := h.ReadPageData(-1); err == nil {
		t.Fatal("negative page must fail")
	}
}

func TestKeyIndex(t *testing.T) {
	idx := NewKeyIndex()
	r1 := page.RecordID{Page: page.ID{Table: 1, PageNo: 0}, Slot: 0}
	r2 := page.RecordID{Page: page.ID{Table: 1, PageNo: 0}, Slot: 1}
	idx.Add(5, r1)
	idx.Add(5, r2) // two versions of the same logical tuple
	if got := idx.Lookup(5); len(got) != 2 {
		t.Fatalf("lookup returned %v", got)
	}
	if idx.Len() != 2 {
		t.Fatalf("Len = %d", idx.Len())
	}
	idx.Remove(5, r1)
	if got := idx.Lookup(5); len(got) != 1 || got[0] != r2 {
		t.Fatalf("after remove: %v", got)
	}
	idx.Remove(5, r2)
	if got := idx.Lookup(5); got != nil {
		t.Fatalf("after removing all: %v", got)
	}
	idx.Remove(99, r1) // removing a missing key is a no-op
	idx.Add(1, r1)
	idx.Clear()
	if idx.Len() != 0 {
		t.Fatal("Clear did not empty the index")
	}
}

func TestBuildKeyIndex(t *testing.T) {
	h := newHeap(t, 4)
	writeTuple(t, h, 10, 1, 0)
	writeTuple(t, h, 11, 2, 0)
	writeTuple(t, h, 10, 3, 0) // new version of key 10
	idx, err := BuildKeyIndex(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Lookup(10)) != 2 || len(idx.Lookup(11)) != 1 {
		t.Fatalf("rebuilt index wrong: 10→%v 11→%v", idx.Lookup(10), idx.Lookup(11))
	}
}

// TestKeyIndexPageBounds pins the per-page key bounds contract: Add widens,
// Remove never narrows, the last Remove / DropPage / Clear forget the page
// (an unknown page must be visited), and Rebuild derives fresh bounds.
func TestKeyIndexPageBounds(t *testing.T) {
	idx := NewKeyIndex()
	p0, p1 := page.ID{Table: 1, PageNo: 0}, page.ID{Table: 1, PageNo: 1}
	rid := func(p page.ID, slot int) page.RecordID { return page.RecordID{Page: p, Slot: slot} }
	bounds := func(p page.ID) [2]int64 {
		t.Helper()
		lo, hi, ok := idx.PageBounds(p)
		if !ok {
			t.Fatalf("page %v has no bounds", p)
		}
		return [2]int64{lo, hi}
	}
	unknown := func(p page.ID) {
		t.Helper()
		if _, _, ok := idx.PageBounds(p); ok {
			t.Fatalf("page %v should have no bounds", p)
		}
	}
	unknown(p0)
	idx.Add(50, rid(p0, 0))
	idx.Add(40, rid(p0, 1))
	idx.Add(90, rid(p0, 2))
	idx.Add(7, rid(p1, 0))
	if got := bounds(p0); got != [2]int64{40, 90} {
		t.Fatalf("p0 bounds = %v, want [40 90]", got)
	}
	if got := bounds(p1); got != [2]int64{7, 7} {
		t.Fatalf("p1 bounds = %v, want [7 7]", got)
	}
	// Removing an extreme key must not narrow: the index cannot know what
	// else the page holds under that bound.
	idx.Remove(90, rid(p0, 2))
	idx.Remove(90, rid(p0, 2)) // a repeated or unknown removal changes nothing
	idx.Remove(41, rid(p0, 1))
	if got := bounds(p0); got != [2]int64{40, 90} {
		t.Fatalf("p0 bounds after Remove = %v, want [40 90]", got)
	}
	// The last record id takes the bounds with it; a reused page starts over.
	idx.Remove(50, rid(p0, 0))
	idx.Remove(40, rid(p0, 1))
	unknown(p0)
	idx.Add(1000, rid(p0, 0))
	if got := bounds(p0); got != [2]int64{1000, 1000} {
		t.Fatalf("reused p0 bounds = %v, want [1000 1000]", got)
	}
	if n := idx.DropPage(p0); n != 1 {
		t.Fatalf("DropPage dropped %d entries, want 1", n)
	}
	unknown(p0)
	bounds(p1)
	idx.Clear()
	unknown(p1)

	h := newHeap(t, 4)
	for _, id := range []int64{30, 10, 20} {
		writeTuple(t, h, id, 1, 0)
	}
	idx.Add(-5, rid(p0, 9)) // stale state Rebuild must replace
	if err := idx.Rebuild(h); err != nil {
		t.Fatal(err)
	}
	if got := bounds(page.ID{Table: h.TableID(), PageNo: 0}); got != [2]int64{10, 30} {
		t.Fatalf("rebuilt bounds = %v, want [10 30]", got)
	}
}

func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := m.Create(1, testDesc(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(1, testDesc(), 4); err == nil {
		t.Fatal("duplicate create must fail")
	}
	writeTuple(t, tb.Heap, 42, 9, 0)
	if err := tb.Heap.SyncData(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Heap.FlushMeta(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: tables and indexes come back.
	m2, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := m2.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb2.Index.Lookup(42)) != 1 {
		t.Fatal("index not rebuilt on restart")
	}
	if !m2.Has(1) || m2.Has(2) {
		t.Fatal("Has is wrong")
	}
	if got := m2.IDs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("IDs = %v", got)
	}
	if err := m2.Drop(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Get(1); err == nil {
		t.Fatal("dropped table still accessible")
	}
	if _, err := os.Stat(filepath.Join(dir, "table_1.heap")); !os.IsNotExist(err) {
		t.Fatal("heap file not removed by drop")
	}
	m2.Close()
}

// Property: meta marshal/unmarshal round-trips arbitrary directories.
func TestQuickMetaRoundTrip(t *testing.T) {
	desc := testDesc()
	f := func(nSeg uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Meta{
			TableID:           int32(rng.Intn(100)),
			SegPages:          int32(rng.Intn(100) + 1),
			NextPage:          int32(rng.Intn(10000)),
			MinUncommittedSeg: int32(rng.Intn(10) - 1),
			Desc:              desc,
		}
		for i := 0; i < int(nSeg%8); i++ {
			s := Segment{
				TminIns: rng.Int63(),
				TmaxIns: rng.Int63(),
				TmaxDel: rng.Int63(),
			}
			for j := 0; j <= rng.Intn(3); j++ {
				s.Extents = append(s.Extents, Extent{Start: int32(rng.Intn(1000)), Count: int32(rng.Intn(50) + 1)})
			}
			m.Segments = append(m.Segments, s)
		}
		if rng.Intn(2) == 0 {
			m.Free = append(m.Free, Extent{Start: 1, Count: 2})
		}
		got, err := unmarshalMeta(m.marshal())
		if err != nil {
			return false
		}
		if got.TableID != m.TableID || got.SegPages != m.SegPages ||
			got.NextPage != m.NextPage || got.MinUncommittedSeg != m.MinUncommittedSeg {
			return false
		}
		if !got.Desc.Equal(m.Desc) || !reflect.DeepEqual(got.Segments, m.Segments) ||
			!reflect.DeepEqual(got.Free, m.Free) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// Property: SegmentPlan never prunes a segment containing a matching tuple
// (pruning is sound: a pruned scan sees exactly the matching tuples that a
// full scan sees).
func TestQuickSegmentPlanSound(t *testing.T) {
	f := func(seed int64, nOps uint8, insLEr, insGTr, delGTr uint8) bool {
		dir, err := os.MkdirTemp("", "segplan")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		h, err := Create(dir, 1, testDesc(), 1)
		if err != nil {
			return false
		}
		defer h.Close()
		rng := rand.New(rand.NewSource(seed))
		ts := tuple.Timestamp(1)
		type row struct {
			rid      page.RecordID
			ins, del tuple.Timestamp
		}
		var rows []row
		for i := 0; i < int(nOps); i++ {
			if rng.Intn(4) == 0 && len(rows) > 0 {
				// delete a random live row
				r := &rows[rng.Intn(len(rows))]
				if r.del == 0 {
					r.del = ts
					// stamp the page
					img, err := h.ReadPageData(r.rid.Page.PageNo)
					if err != nil {
						return false
					}
					pg, err := page.FromBytes(r.rid.Page, img, h.TupleWidth())
					if err != nil {
						return false
					}
					if err := pg.WriteInt64At(r.rid.Slot, h.Desc().Offset(tuple.FieldDelTS), int64(ts)); err != nil {
						return false
					}
					if err := h.WritePageData(r.rid.Page.PageNo, pg.Bytes()); err != nil {
						return false
					}
					h.OnCommitStamp(h.SegmentFor(r.rid.Page.PageNo), 0, ts)
					ts++
				}
				continue
			}
			rid := writeQuick(h, int64(i), ts)
			rows = append(rows, row{rid: rid, ins: ts})
			ts++
		}
		insLE := tuple.Timestamp(insLEr % 40)
		insGT := tuple.Timestamp(insGTr % 40)
		delGT := tuple.Timestamp(delGTr % 40)
		// For each single-bound plan, every matching tuple must live in a
		// planned segment.
		check := func(plan []int32, match func(row) bool) bool {
			planned := map[int32]bool{}
			for _, s := range plan {
				planned[s] = true
			}
			for _, r := range rows {
				if match(r) && !planned[h.SegmentFor(r.rid.Page.PageNo)] {
					return false
				}
			}
			return true
		}
		if !check(h.SegmentPlan(&insLE, nil, nil, false), func(r row) bool { return r.ins <= insLE }) {
			return false
		}
		if !check(h.SegmentPlan(nil, &insGT, nil, false), func(r row) bool { return r.ins > insGT }) {
			return false
		}
		if !check(h.SegmentPlan(nil, nil, &delGT, false), func(r row) bool { return r.del > delGT }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func writeQuick(h *HeapFile, id int64, ins tuple.Timestamp) page.RecordID {
	tp := tuple.MustMake(h.Desc(), tuple.VInt(id), tuple.VInt(0))
	tp.SetInsTS(ins)
	pno := h.InsertHint()
	var pg *page.Page
	var si int32
	ok := false
	if pno >= 0 {
		img, err := h.ReadPageData(pno)
		if err == nil {
			pg, err = page.FromBytes(page.ID{Table: h.TableID(), PageNo: pno}, img, h.TupleWidth())
			if err == nil && pg.FirstFree() >= 0 {
				si = h.SegmentFor(pno)
				ok = true
			}
		}
	}
	if !ok {
		var err error
		pno, si, err = h.AllocPage()
		if err != nil {
			panic(err)
		}
		img, err := h.ReadPageData(pno)
		if err != nil {
			panic(err)
		}
		pg, err = page.FromBytes(page.ID{Table: h.TableID(), PageNo: pno}, img, h.TupleWidth())
		if err != nil {
			panic(err)
		}
	}
	slot, err := pg.Insert(tp.Encode(h.Desc()))
	if err != nil {
		panic(err)
	}
	if err := h.WritePageData(pno, pg.Bytes()); err != nil {
		panic(err)
	}
	h.SetInsertHint(pno)
	h.OnCommitStamp(si, ins, 0)
	return page.RecordID{Page: page.ID{Table: h.TableID(), PageNo: pno}, Slot: slot}
}

func TestEnsureAllocatedIdempotent(t *testing.T) {
	h := newHeap(t, 4)
	// Fresh file: replay an allocation for page 2 in segment 0.
	h.EnsureAllocated(2, 0)
	if h.SegmentFor(2) != 0 {
		t.Fatalf("page 2 not in segment 0")
	}
	if h.NumPages() != 3 {
		t.Fatalf("NextPage = %d, want 3", h.NumPages())
	}
	// Idempotent.
	h.EnsureAllocated(2, 0)
	if h.NumSegments() != 1 {
		t.Fatalf("segments = %d", h.NumSegments())
	}
	// Allocation into a later segment creates intermediates.
	h.EnsureAllocated(7, 2)
	if h.NumSegments() != 3 || h.SegmentFor(7) != 2 {
		t.Fatalf("segments = %d, segFor(7) = %d", h.NumSegments(), h.SegmentFor(7))
	}
	// Normal allocation respects the replayed NextPage.
	p, _, err := h.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if p != 8 {
		t.Fatalf("AllocPage after replay = %d, want 8", p)
	}
}
