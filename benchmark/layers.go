package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"harbor/internal/buffer"
	"harbor/internal/comm"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/lockmgr"
	"harbor/internal/page"
	"harbor/internal/storage"
	"harbor/internal/tuple"
	"harbor/internal/version"
	"harbor/internal/wal"
	"harbor/internal/wire"
)

// Kernels (source K) time one layer's public functions directly, on inputs
// shaped like the workloads': the 16-field benchmark tuple, a 256-row batch
// frame, a 4 KiB page. They give the unit costs the ledger multiplies the
// registry counts by.

// measure calls op with growing iteration counts until d has passed and
// returns the mean cost of one iteration in nanoseconds.
func measure(d time.Duration, op func(n int)) (nsPerOp float64, ops int) {
	n := 1
	var total time.Duration
	for total < d {
		t0 := time.Now()
		op(n)
		el := time.Since(t0)
		total += el
		ops += n
		if el < d/20 {
			n *= 2
		}
	}
	return float64(total.Nanoseconds()) / float64(ops), ops
}

// kernelSite is a single site's storage stack without a server: the
// single-node baseline the version and exec kernels run on.
type kernelSite struct {
	mgr   *storage.Manager
	locks *lockmgr.Manager
	pool  *buffer.Pool
	store *version.Store
	table *storage.Table
	rows  int64
}

const kernelTable = 1

func newKernelSite(dir string, desc *tuple.Desc, rows int64, frames int) (*kernelSite, error) {
	mgr, err := storage.NewManager(dir)
	if err != nil {
		return nil, err
	}
	s := &kernelSite{mgr: mgr, rows: rows, locks: lockmgr.New(lockTimeout)}
	s.pool = buffer.New(&version.PageStore{Mgr: mgr}, s.locks, frames, buffer.StealNoForce)
	s.store = version.NewStore(mgr, s.pool, s.locks, nil)
	if s.table, err = mgr.Create(kernelTable, desc, 64); err != nil {
		s.close()
		return nil, err
	}
	batch := make([]tuple.Tuple, rows)
	for i := range batch {
		batch[i] = loadedRow(desc, int64(i))
	}
	if _, err := s.table.Heap.BulkLoadSegment(batch); err != nil {
		s.close()
		return nil, err
	}
	if err := mgr.RebuildIndexes(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *kernelSite) close() { s.mgr.Close() }

// kernelCount is how many kernels runKernels times; a traced run divides
// its kernel budget by it.
const kernelCount = 22

// runKernels times every kernel for about per each, in a scratch directory
// under base, and adds one metric per kernel to r. A kernel that fails
// aborts the run: a unit cost of a broken call is not a unit cost.
func runKernels(r *report, base string, per time.Duration, seed int64) error {
	dir, err := os.MkdirTemp(base, "kernels-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	desc := benchDesc()
	width := desc.Width()
	row := makeRow(desc, 12345, 1)
	row.SetInsTS(loadTS)
	rnd := newRng(seed, 99)
	var kerr error
	fail := func(err error) {
		if err != nil && kerr == nil {
			kerr = err
		}
	}
	added := 0
	add := func(name, unit string, scale float64, op func(n int)) {
		if kerr != nil {
			return
		}
		ns, ops := measure(per, op)
		r.add(name, unit, ns*scale, ops)
		added++
	}

	// --- comm: one request/response exchange on loopback ------------------
	srv, err := comm.Listen("127.0.0.1:0", comm.HandlerFunc(func(c *comm.Conn) {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
			if err := c.Send(&wire.Msg{Type: wire.MsgOK}); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return err
	}
	conn, err := comm.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return err
	}
	add("comm.rtt_us", "us", 1e-3, func(n int) {
		for i := 0; i < n; i++ {
			_, err := conn.Call(&wire.Msg{Type: wire.MsgPing})
			fail(err)
		}
	})
	conn.Close()
	srv.Close()

	// --- wire and tuple: the update message and the 256-row batch frame ---
	insertMsg := &wire.Msg{Type: wire.MsgInsert, Txn: 42, Table: 1, Tuple: wire.TupleValues(row)}
	var enc wire.Encoder
	add("wire.msg_encode_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			fail(enc.WriteMsg(io.Discard, insertMsg))
		}
	})
	b := tuple.NewBatch(wire.BatchTargetRows)
	for i := 0; i < wire.BatchTargetRows; i++ {
		b.Append(loadedRow(desc, int64(i)))
	}
	raw := b.EncodeTo(desc, nil)
	frame := &wire.Msg{Type: wire.MsgTupleBatch, Count: int64(b.Len()), Raw: raw}
	perRow := 1 / float64(b.Len())
	add("wire.batch_encode_ns_per_row", "ns", perRow, func(n int) {
		for i := 0; i < n; i++ {
			fail(enc.WriteMsg(io.Discard, frame))
		}
	})
	var framed bytes.Buffer
	fail(enc.WriteMsg(&framed, frame))
	var dec wire.Decoder
	rd := bytes.NewReader(nil)
	add("wire.batch_decode_ns_per_row", "ns", perRow, func(n int) {
		for i := 0; i < n; i++ {
			rd.Reset(framed.Bytes())
			_, err := dec.ReadMsg(rd)
			fail(err)
		}
	})
	buf := make([]byte, width)
	add("tuple.encode_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			row.EncodeTo(desc, buf)
		}
	})
	add("tuple.decode_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			_, err := tuple.Decode(desc, buf)
			fail(err)
		}
	})
	out := tuple.NewBatch(wire.BatchTargetRows)
	add("tuple.batch_decode_ns_per_row", "ns", perRow, func(n int) {
		for i := 0; i < n; i++ {
			out.Reset()
			fail(out.DecodeBatch(desc, raw))
		}
	})

	// --- page: a 4 KiB slotted page of benchmark tuples --------------------
	slots := page.SlotsPerPage(width)
	var pg *page.Page
	add("page.insert_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			if pg == nil || pg.FirstFree() < 0 {
				pg = page.New(page.ID{Table: 1}, width)
			}
			_, err := pg.Insert(buf)
			fail(err)
		}
	})
	full := page.New(page.ID{Table: 1}, width)
	for i := 0; i < slots; i++ {
		_, err := full.Insert(buf)
		fail(err)
	}
	add("page.slot_read_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			_, err := full.Slot(i % slots)
			fail(err)
		}
	})

	// --- lockmgr: an uncontended exclusive page lock, taken and released ---
	locks := lockmgr.New(lockTimeout)
	add("lockmgr.acquire_release_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			fail(locks.Acquire(1, lockmgr.PageTarget(1, int32(i%64)), lockmgr.X))
			locks.ReleaseAll(1)
		}
	})

	// --- storage and buffer: a table of 256 pages behind an 8-frame pool ---
	const smallFrames = 8
	small, err := newKernelSite(filepath.Join(dir, "small"), desc, int64(256*slots), smallFrames)
	if err != nil {
		return err
	}
	defer small.close()
	heap := small.table.Heap
	pages := heap.NumPages()
	add("storage.read_page_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			_, err := heap.ReadPageData(int32(i) % pages)
			fail(err)
		}
	})
	img, err := heap.ReadPageData(0)
	if err != nil {
		return err
	}
	add("storage.write_page_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			// Page 0's own image, so the table stays valid.
			fail(heap.WritePageData(0, img))
		}
	})
	add("storage.keyindex_lookup_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			if len(small.table.Index.Lookup(rnd.intn(small.rows))) != 1 {
				fail(fmt.Errorf("key index lost a key"))
			}
		}
	})
	hitPage := page.ID{Table: kernelTable, PageNo: 0}
	add("buffer.getpage_hit_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			f, err := small.pool.GetPageNoLock(hitPage)
			if err != nil {
				fail(err)
				return
			}
			small.pool.Unpin(f, false, 0)
		}
	})
	next := int32(0)
	add("buffer.getpage_miss_ns", "ns", 1, func(n int) {
		// Cycling through 256 pages with 8 frames: every fetch evicts
		// and reads.
		for i := 0; i < n; i++ {
			next = (next + 1) % pages
			f, err := small.pool.GetPageNoLock(page.ID{Table: kernelTable, PageNo: next})
			if err != nil {
				fail(err)
				return
			}
			small.pool.Unpin(f, false, 0)
		}
	})

	// --- wal: append, and append + forced write (real fsync, no added delay)
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	log, err := wal.Open(walDir, 0)
	if err != nil {
		return err
	}
	defer log.Close()
	rec := &wal.Record{Type: wal.RecCommit, Txn: 1, CommitTS: 1}
	appended := 0
	add("wal.append_ns", "ns", 1, func(n int) {
		// Append only buffers; one flush per 65536 records bounds the
		// buffer and adds a few nanoseconds per record.
		for i := 0; i < n; i++ {
			log.Append(rec)
			if appended++; appended%(1<<16) == 0 {
				fail(log.FlushAll())
			}
		}
	})
	add("wal.force_us", "us", 1e-3, func(n int) {
		for i := 0; i < n; i++ {
			fail(log.Force(log.Append(rec), true))
		}
	})

	// --- version and exec: a single site whose table fits in its pool -----
	const siteRows = 20_000
	site, err := newKernelSite(filepath.Join(dir, "site"), desc, siteRows, 8192)
	if err != nil {
		return err
	}
	defer site.close()
	scanRows := func(pred expr.Pred) (int64, error) {
		scan := exec.NewSeqScan(site.store, exec.ScanSpec{Table: kernelTable, Vis: exec.Historical, AsOf: loadTS, Pred: pred})
		var n int64
		err := exec.DrainBatches(scan, func(b *tuple.Batch) error {
			n += int64(b.Len())
			return nil
		})
		return n, err
	}
	add("exec.seqscan_ns_per_row", "ns", 1/float64(siteRows), func(n int) {
		for i := 0; i < n; i++ {
			got, err := scanRows(expr.Pred{})
			if err == nil && got != siteRows {
				err = fmt.Errorf("scan kernel: %d rows, want %d", got, siteRows)
			}
			fail(err)
		}
	})
	narrow := expr.KeyRange{Lo: siteRows / 2, Hi: siteRows/2 + siteRows/100}.Pred(desc)
	add("exec.filter_ns_per_row", "ns", 1/float64(siteRows), func(n int) {
		// Cost per row examined of a scan carrying a 1% key-range predicate.
		for i := 0; i < n; i++ {
			got, err := scanRows(narrow)
			if err == nil && got != siteRows/100 {
				err = fmt.Errorf("filter kernel: %d rows, want %d", got, siteRows/100)
			}
			fail(err)
		}
	})
	gt := exec.NewGroupTable(desc.FieldIndex("g"), []exec.AggSpec{{Fn: exec.Count}, {Fn: exec.Sum, Field: desc.FieldIndex("f0")}})
	add("exec.groupagg_ns_per_row", "ns", perRow, func(n int) {
		for i := 0; i < n; i++ {
			gt.AddBatch(b)
		}
	})
	// The version kernels run last: they grow the table the scans above read.
	tid, ts, fresh := version.TxnID(1), tuple.Timestamp(loadTS+1), int64(siteRows)
	add("version.insert_commit_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			tid, ts, fresh = tid+1, ts+1, fresh+1
			_, err := site.store.InsertTuple(tid, kernelTable, makeRow(desc, fresh, 1))
			fail(err)
			fail(site.store.Commit(tid, ts, false, false))
		}
	})
	add("version.update_commit_ns", "ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			tid, ts = tid+1, ts+1
			key := rnd.intn(siteRows)
			repl := makeRow(desc, key, int64(ts))
			found, err := exec.UpdateByKey(site.store, tid, kernelTable, key, func(old tuple.Tuple) tuple.Tuple {
				copy(old.Values[tuple.FieldFirstUser:], repl.Values[tuple.FieldFirstUser:])
				return old
			})
			if err == nil && !found {
				err = fmt.Errorf("update kernel: key %d not found", key)
			}
			fail(err)
			fail(site.store.Commit(tid, ts, false, false))
		}
	})
	if kerr == nil && added != kernelCount {
		kerr = fmt.Errorf("%d kernels ran, kernelCount says %d", added, kernelCount)
	}
	return kerr
}
