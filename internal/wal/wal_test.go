package wal

import (
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"harbor/internal/obs"
	"harbor/internal/page"
)

func openTest(t *testing.T) (*Manager, string) {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, dir
}

// instrument binds m to a fresh registry, so a test reads the wal.* counters
// the way a site's metrics snapshot does.
func instrument(m *Manager) *obs.Registry {
	reg := obs.NewRegistry()
	m.Instrument(reg)
	return reg
}

func TestAppendForceIter(t *testing.T) {
	m, _ := openTest(t)
	r1 := &Record{Type: RecInsert, Txn: 1, Page: page.ID{Table: 1, PageNo: 2}, Slot: 3, Image: []byte{1, 2, 3}}
	lsn1 := m.Append(r1)
	r2 := &Record{Type: RecCommit, Txn: 1, PrevLSN: lsn1, CommitTS: 99}
	lsn2 := m.Append(r2)
	if lsn2 <= lsn1 {
		t.Fatalf("LSNs not increasing: %d then %d", lsn1, lsn2)
	}
	if err := m.Force(lsn2, true); err != nil {
		t.Fatal(err)
	}
	if m.FlushedLSN() <= lsn2 {
		t.Fatalf("flushed %d, want > %d", m.FlushedLSN(), lsn2)
	}
	var got []*Record
	if err := m.Iter(0, func(r *Record) (bool, error) {
		got = append(got, r)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("iterated %d records, want 2", len(got))
	}
	if got[0].Type != RecInsert || string(got[0].Image) != string([]byte{1, 2, 3}) {
		t.Fatalf("record 0 corrupted: %+v", got[0])
	}
	if got[1].Type != RecCommit || got[1].CommitTS != 99 || got[1].PrevLSN != lsn1 {
		t.Fatalf("record 1 corrupted: %+v", got[1])
	}
	if got[0].LSN != lsn1 || got[1].LSN != lsn2 {
		t.Fatalf("iterated LSNs %d,%d want %d,%d", got[0].LSN, got[1].LSN, lsn1, lsn2)
	}
}

func TestIterIncludesUnflushedTail(t *testing.T) {
	m, _ := openTest(t)
	m.Append(&Record{Type: RecPrepare, Txn: 7})
	count := 0
	if err := m.Iter(0, func(r *Record) (bool, error) {
		count++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("tail record not iterated (count=%d)", count)
	}
}

func TestIterFromLSN(t *testing.T) {
	m, _ := openTest(t)
	m.Append(&Record{Type: RecPrepare, Txn: 1})
	lsn2 := m.Append(&Record{Type: RecCommit, Txn: 1})
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var types []RecType
	if err := m.Iter(lsn2, func(r *Record) (bool, error) {
		types = append(types, r.Type)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(types, []RecType{RecCommit}) {
		t.Fatalf("Iter(from=%d) saw %v", lsn2, types)
	}
}

func TestIterEarlyStop(t *testing.T) {
	m, _ := openTest(t)
	for i := 0; i < 5; i++ {
		m.Append(&Record{Type: RecPrepare, Txn: int64(i)})
	}
	count := 0
	if err := m.Iter(0, func(r *Record) (bool, error) {
		count++
		return count < 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("early stop failed, count=%d", count)
	}
}

func TestReopenDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsn := m.Append(&Record{Type: RecCommit, Txn: 1, CommitTS: 5})
	if err := m.Force(lsn, true); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// Simulate a torn write: append garbage.
	f, err := os.OpenFile(Path(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9, 9, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	count := 0
	if err := m2.Iter(0, func(r *Record) (bool, error) {
		count++
		if r.Type != RecCommit {
			t.Errorf("unexpected type %v", r.Type)
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("after torn tail: %d records, want 1", count)
	}
	// New appends go after the valid prefix.
	lsn2 := m2.Append(&Record{Type: RecAbort, Txn: 2})
	if err := m2.Force(lsn2, true); err != nil {
		t.Fatal(err)
	}
	count = 0
	if err := m2.Iter(0, func(r *Record) (bool, error) { count++; return true, nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("after append: %d records, want 2", count)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	m, _ := openTest(t)
	reg := instrument(m)
	const n = 32
	var wg sync.WaitGroup
	lsns := make([]page.LSN, n)
	for i := 0; i < n; i++ {
		lsns[i] = m.Append(&Record{Type: RecCommit, Txn: int64(i)})
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := m.Force(lsns[i], true); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	forceCalls, fsyncs, appends := reg.Counter("wal.force_calls").Load(), reg.Counter("wal.fsyncs").Load(), reg.Counter("wal.appends").Load()
	if forceCalls != n {
		t.Fatalf("forceCalls = %d, want %d", forceCalls, n)
	}
	if appends != n {
		t.Fatalf("appends = %d, want %d", appends, n)
	}
	if fsyncs >= n {
		t.Fatalf("group commit did not batch: %d fsyncs for %d forces", fsyncs, n)
	}
	if fsyncs < 1 {
		t.Fatalf("no fsync at all")
	}
}

func TestForceAlreadyFlushedIsFree(t *testing.T) {
	m, _ := openTest(t)
	fsyncs := instrument(m).Counter("wal.fsyncs")
	lsn := m.Append(&Record{Type: RecCommit, Txn: 1})
	if err := m.Force(lsn, true); err != nil {
		t.Fatal(err)
	}
	fs1 := fsyncs.Load()
	if err := m.Force(lsn, true); err != nil {
		t.Fatal(err)
	}
	if fs2 := fsyncs.Load(); fs2 != fs1 {
		t.Fatalf("re-force caused fsync: %d → %d", fs1, fs2)
	}
}

func TestGroupDelayStillCorrect(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lsn := m.Append(&Record{Type: RecCommit, Txn: 1})
	if err := m.Force(lsn, true); err != nil {
		t.Fatal(err)
	}
	if m.FlushedLSN() <= lsn {
		t.Fatal("force with delay did not flush")
	}
}

func TestMasterRecord(t *testing.T) {
	dir := t.TempDir()
	got, err := ReadMaster(dir)
	if err != nil || got != 0 {
		t.Fatalf("empty master: %d, %v", got, err)
	}
	if err := WriteMaster(dir, 12345); err != nil {
		t.Fatal(err)
	}
	got, err = ReadMaster(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12345 {
		t.Fatalf("master = %d", got)
	}
	// Corruption detected.
	raw, _ := os.ReadFile(MasterPath(dir))
	raw[0] ^= 0xFF
	os.WriteFile(MasterPath(dir), raw, 0o644)
	if _, err := ReadMaster(dir); err == nil {
		t.Fatal("corrupt master must error")
	}
}

// Property: record marshal/unmarshal round-trips arbitrary records.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(typ uint8, txn int64, prev uint64, table, pageNo, slot, fieldOff int32,
		before, after, commitTS int64, undoNext uint64, img []byte, newSeg bool,
		nDirty, nTxn uint8) bool {
		r := &Record{
			Type: RecType(typ%11 + 1), Txn: txn, PrevLSN: prev,
			Page: page.ID{Table: table, PageNo: pageNo}, Slot: slot,
			FieldOff: fieldOff, Before: before, After: after,
			SegIdx: slot / 2, NewSegment: newSeg,
			CommitTS: commitTS, UndoNext: undoNext,
		}
		if len(img) > 0 {
			r.Image = img
		}
		for i := uint8(0); i < nDirty%5; i++ {
			r.DirtyPages = append(r.DirtyPages, DirtyPage{Page: page.ID{Table: int32(i), PageNo: int32(i * 2)}, RecLSN: uint64(i)})
		}
		for i := uint8(0); i < nTxn%5; i++ {
			r.ActiveTxns = append(r.ActiveTxns, TxnStatus{Txn: int64(i), State: TxnState(i%4 + 1), LastLSN: uint64(i)})
		}
		got, err := unmarshalRecord(marshalRecord(r))
		if err != nil {
			return false
		}
		got.LSN = r.LSN
		return reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	r := &Record{Type: RecCheckpoint, DirtyPages: []DirtyPage{{Page: page.ID{Table: 1}, RecLSN: 2}}}
	body := marshalRecord(r)
	for i := 0; i < len(body); i++ {
		if _, err := unmarshalRecord(body[:i]); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
}

func BenchmarkAppendForce(b *testing.B) {
	dir := b.TempDir()
	m, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	r := &Record{Type: RecCommit, Txn: 1, CommitTS: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lsn := m.Append(r)
		if err := m.Force(lsn, true); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNoGroupTakeoverWritesBeforeSync is the regression test for the
// Figure 6-2 no-group-commit configuration: when a Force call finds another
// flusher in flight, the takeover path must write the still-buffered batch
// *before* its fsync. The buggy version synced the bare file first, leaving
// the caller's record volatile until a second loop iteration issued a third
// fsync.
func TestNoGroupTakeoverWritesBeforeSync(t *testing.T) {
	m, _ := openTest(t)
	reg := instrument(m)
	m.SetNoGroup(true)
	m.SetSyncDelay(50 * time.Millisecond)

	r1 := &Record{Type: RecCommit, Txn: 1, CommitTS: 1}
	lsn1 := m.Append(r1)

	done1 := make(chan error, 1)
	go func() { done1 <- m.Force(lsn1, true) }()

	// Wait until the first Force is inside its flush critical section (it
	// stays there ≥ 50ms thanks to the simulated disk latency).
	deadline := time.Now().Add(2 * time.Second)
	for {
		m.mu.Lock()
		flushing := m.flushing
		m.mu.Unlock()
		if flushing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first Force never started flushing")
		}
		time.Sleep(time.Millisecond)
	}

	// Append a second record while the first fsync is in flight, then Force
	// it: this exercises the no-group takeover branch.
	r2 := &Record{Type: RecCommit, Txn: 2, CommitTS: 2}
	lsn2 := m.Append(r2)
	if err := m.Force(lsn2, true); err != nil {
		t.Fatal(err)
	}

	// FlushedLSN progression: the takeover's own fsync covered r2.
	if m.FlushedLSN() <= lsn2 {
		t.Fatalf("FlushedLSN = %d after Force(%d); takeover fsync did not cover the record", m.FlushedLSN(), lsn2)
	}
	if err := <-done1; err != nil {
		t.Fatal(err)
	}

	// Two Force calls → exactly two serialized fsyncs. The buggy branch
	// needed a third (an empty sync, then a second iteration to flush r2).
	if fsyncs := reg.Counter("wal.fsyncs").Load(); fsyncs != 2 {
		t.Fatalf("fsyncs = %d, want 2 (no-group commit: one fsync per Force)", fsyncs)
	}

	// The record really is on disk and intact.
	var seen int
	if err := m.Iter(0, func(r *Record) (bool, error) {
		seen++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("iterated %d records, want 2", seen)
	}
}
