package buffer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"harbor/internal/lockmgr"
	"harbor/internal/obs"
	"harbor/internal/page"
)

// memStore is an in-memory Store for tests.
type memStore struct {
	mu          sync.Mutex
	pages       map[page.ID][]byte
	width       int
	beforeFlush []page.ID // record of BeforeFlush calls
	failFlush   bool
}

func newMemStore(width, nPages int, table int32) *memStore {
	s := &memStore{pages: map[page.ID][]byte{}, width: width}
	for i := 0; i < nPages; i++ {
		p := page.New(page.ID{Table: table, PageNo: int32(i)}, width)
		s.pages[p.ID()] = p.Bytes()
	}
	return s
}

func (s *memStore) ReadPage(pid page.ID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.pages[pid]
	if !ok {
		return nil, errors.New("no such page")
	}
	out := make([]byte, len(img))
	copy(out, img)
	return out, nil
}

func (s *memStore) WritePage(pid page.ID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failFlush {
		return errors.New("flush failure injected")
	}
	out := make([]byte, len(data))
	copy(out, data)
	s.pages[pid] = out
	return nil
}

func (s *memStore) TupleWidth(table int32) (int, error) { return s.width, nil }

func (s *memStore) BeforeFlush(pid page.ID, lsn page.LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beforeFlush = append(s.beforeFlush, pid)
	return nil
}

func pid(n int32) page.ID { return page.ID{Table: 1, PageNo: n} }

// instrument binds bp to a fresh registry, so a test reads the buffer.*
// counters the way a site's metrics snapshot does.
func instrument(bp *Pool) *obs.Registry {
	reg := obs.NewRegistry()
	bp.Instrument(reg)
	return reg
}

func TestGetPageCachesAndPins(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 4, StealNoForce)
	reg := instrument(bp)
	f, err := bp.GetPageNoLock(pid(0))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := bp.GetPageNoLock(pid(0))
	if err != nil {
		t.Fatal(err)
	}
	if f != f2 {
		t.Fatal("same page produced two frames")
	}
	hits, misses := reg.Counter("buffer.hits").Load(), reg.Counter("buffer.misses").Load()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	bp.Unpin(f, false, 0)
	bp.Unpin(f2, false, 0)
}

func TestEvictionPrefersClean(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 2, StealNoForce)
	reg := instrument(bp)
	fa, _ := bp.GetPageNoLock(pid(0))
	// Dirty page 0.
	fa.Latch.Lock()
	if _, err := fa.Page.Insert(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	fa.Latch.Unlock()
	bp.Unpin(fa, true, 0)
	fb, _ := bp.GetPageNoLock(pid(1))
	bp.Unpin(fb, false, 0)
	// Pool full; next fetch must evict the clean page 1, not flush page 0.
	fc, err := bp.GetPageNoLock(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(fc, false, 0)
	evictions, flushes := reg.Counter("buffer.evictions").Load(), reg.Counter("buffer.flushes").Load()
	if evictions != 1 || flushes != 0 {
		t.Fatalf("evictions=%d flushes=%d; expected clean eviction", evictions, flushes)
	}
	if len(bp.DirtyPages()) != 1 {
		t.Fatal("dirty page disappeared")
	}
}

func TestStealFlushesDirtyVictim(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 1, StealNoForce)
	reg := instrument(bp)
	fa, _ := bp.GetPageNoLock(pid(0))
	fa.Latch.Lock()
	if _, err := fa.Page.Insert(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	fa.Latch.Unlock()
	bp.Unpin(fa, true, 77)
	// Fetching another page forces a steal of the dirty page.
	fb, err := bp.GetPageNoLock(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(fb, false, 0)
	flushes := reg.Counter("buffer.flushes").Load()
	if flushes != 1 {
		t.Fatalf("flushes=%d, expected stolen flush", flushes)
	}
	if len(st.beforeFlush) != 1 || st.beforeFlush[0] != pid(0) {
		t.Fatalf("BeforeFlush hook calls: %v", st.beforeFlush)
	}
	// The stolen page's content survived.
	img, _ := st.ReadPage(pid(0))
	p, err := page.FromBytes(pid(0), img, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumUsed() != 1 {
		t.Fatal("stolen page lost its tuple")
	}
}

func TestNoStealRefusesDirtyEviction(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 1, NoStealNoForce)
	fa, _ := bp.GetPageNoLock(pid(0))
	bp.Unpin(fa, true, 0)
	if _, err := bp.GetPageNoLock(pid(1)); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("expected saturation under no-steal, got %v", err)
	}
}

func TestSaturationWhenAllPinned(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 1, StealNoForce)
	f, _ := bp.GetPageNoLock(pid(0)) // pinned
	if _, err := bp.GetPageNoLock(pid(1)); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("expected saturation, got %v", err)
	}
	bp.Unpin(f, false, 0)
	if _, err := bp.GetPageNoLock(pid(1)); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestDirtyPagesTableAndRecLSN(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 4, StealNoForce)
	f, _ := bp.GetPageNoLock(pid(2))
	bp.Unpin(f, true, 123)
	// A second dirtying must not overwrite the original recLSN.
	f2, _ := bp.GetPageNoLock(pid(2))
	bp.Unpin(f2, true, 456)
	dps := bp.DirtyPages()
	if len(dps) != 1 || dps[0].Page != pid(2) || dps[0].RecLSN != 123 {
		t.Fatalf("dirty pages table: %+v", dps)
	}
	if !f.Dirty() || f.RecLSN() != 123 {
		t.Fatal("frame accessors disagree")
	}
}

func TestFlushAllClearsDirty(t *testing.T) {
	st := newMemStore(64, 8, 1)
	bp := New(st, nil, 8, StealNoForce)
	for i := int32(0); i < 4; i++ {
		f, _ := bp.GetPageNoLock(pid(i))
		f.Latch.Lock()
		if _, err := f.Page.Insert(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		f.Latch.Unlock()
		bp.Unpin(f, true, page.LSN(i+1))
	}
	if len(bp.DirtyPages()) != 4 {
		t.Fatal("setup failed")
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(bp.DirtyPages()) != 0 {
		t.Fatal("dirty table not empty after FlushAll")
	}
	// Everything reached the store.
	for i := int32(0); i < 4; i++ {
		img, _ := st.ReadPage(pid(i))
		p, err := page.FromBytes(pid(i), img, 64)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumUsed() != 1 {
			t.Fatalf("page %d content lost", i)
		}
	}
}

func TestFlushPageOnEvictedPageIsNoop(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 4, StealNoForce)
	if err := bp.FlushPage(pid(3)); err != nil {
		t.Fatal(err)
	}
}

func TestDiscardAllLosesUnflushedChanges(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 4, StealNoForce)
	f, _ := bp.GetPageNoLock(pid(0))
	f.Latch.Lock()
	if _, err := f.Page.Insert(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Latch.Unlock()
	bp.Unpin(f, true, 0)
	bp.DiscardAll() // crash
	if bp.NumFrames() != 0 {
		t.Fatal("frames survived discard")
	}
	img, _ := st.ReadPage(pid(0))
	p, err := page.FromBytes(pid(0), img, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumUsed() != 0 {
		t.Fatal("unflushed change reached disk despite crash")
	}
}

func TestGetPageAcquiresLocks(t *testing.T) {
	st := newMemStore(64, 4, 1)
	locks := lockmgr.New(60 * time.Millisecond)
	bp := New(st, locks, 4, StealNoForce)
	f, err := bp.GetPage(1, pid(0), WritePerm)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, false, 0)
	if !locks.Has(1, lockmgr.PageTarget(1, 0), lockmgr.X) {
		t.Fatal("write perm did not take X lock")
	}
	// Another txn's read of the same page must block until release.
	if _, err := bp.GetPage(2, pid(0), ReadPerm); !errors.Is(err, lockmgr.ErrLockTimeout) {
		t.Fatalf("expected lock timeout, got %v", err)
	}
	locks.ReleaseAll(1)
	f2, err := bp.GetPage(2, pid(0), ReadPerm)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f2, false, 0)
	locks.ReleaseAll(2)
}

func TestConcurrentReaders(t *testing.T) {
	st := newMemStore(64, 8, 1)
	bp := New(st, nil, 8, StealNoForce)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, err := bp.GetPageNoLock(pid(int32(i % 8)))
				if err != nil {
					t.Error(err)
					return
				}
				f.Latch.RLock()
				_ = f.Page.NumUsed()
				f.Latch.RUnlock()
				bp.Unpin(f, false, 0)
			}
		}(g)
	}
	wg.Wait()
}

func TestFlushErrorPropagates(t *testing.T) {
	st := newMemStore(64, 4, 1)
	bp := New(st, nil, 4, StealNoForce)
	f, _ := bp.GetPageNoLock(pid(0))
	bp.Unpin(f, true, 0)
	st.mu.Lock()
	st.failFlush = true
	st.mu.Unlock()
	if err := bp.FlushAll(); err == nil {
		t.Fatal("flush error swallowed")
	}
}
