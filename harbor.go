// Package harbor is the public API of this HARBOR reproduction: an
// updatable, distributed data warehouse with integrated high availability
// and replication-based online crash recovery, after Edmond Lau's 2006 MIT
// thesis "HARBOR: An Integrated Approach to Recovery and High Availability
// in an Updatable, Distributed Data Warehouse".
//
// A deployment is one coordinator plus N worker sites. Tables are
// replicated K+1 times for K-safety (§3.2); update transactions reach every
// live replica through one of four distributed commit protocols (§4.3);
// reads run either against the current database under strict two-phase
// locking or as lock-free historical ("time travel") queries (§3.3). A
// crashed worker recovers online — without quiescing the system and without
// any write-ahead log — by querying remote replicas for the updates it
// missed (Chapter 5). The log-based alternative (ARIES + logging commit
// protocols) is fully implemented as the baseline.
//
// Quick start:
//
//	cluster, _ := harbor.Start(harbor.Options{Workers: 2, Dir: dir})
//	defer cluster.Stop()
//	desc := harbor.MustSchema("id",
//		harbor.Int64Field("id"), harbor.CharField("name", 16))
//	cluster.CreateTable(1, desc)
//	tx := cluster.Begin()
//	tx.Insert(1, harbor.Row(desc, harbor.Int(1), harbor.Str("Colgate")))
//	commitTime, _ := tx.Commit()
//	rows, _ := cluster.Query(1, harbor.Query{})                      // now
//	old, _ := cluster.Query(1, harbor.Query{AsOf: commitTime - 1})   // time travel
//
// Killing and reviving a worker:
//
//	cluster.CrashWorker(0)
//	// ... the cluster keeps serving reads and writes ...
//	stats, _ := cluster.RecoverWorker(0) // HARBOR's three phases
package harbor

import (
	"fmt"
	"path/filepath"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// Re-exported commit protocols (§4.3).
const (
	// TwoPC is traditional two-phase commit with write-ahead logging.
	TwoPC = txn.TwoPC
	// OptTwoPC eliminates worker logging (HARBOR's optimized 2PC).
	OptTwoPC = txn.OptTwoPC
	// ThreePC is canonical non-blocking three-phase commit with logging.
	ThreePC = txn.ThreePC
	// OptThreePC is HARBOR's logless, non-blocking 3PC (the default).
	OptThreePC = txn.OptThreePC
)

// Recovery modes.
const (
	// HARBOR recovers crashed sites from remote replicas (no log).
	HARBOR = worker.HARBOR
	// ARIES recovers crashed sites from a local write-ahead log.
	ARIES = worker.ARIES
)

// Schema helpers.

// Schema is a table schema (timestamp columns included automatically).
type Schema = tuple.Desc

// Int64Field declares an 8-byte integer column.
func Int64Field(name string) tuple.FieldDef {
	return tuple.FieldDef{Name: name, Type: tuple.Int64}
}

// Int32Field declares a 4-byte integer column.
func Int32Field(name string) tuple.FieldDef {
	return tuple.FieldDef{Name: name, Type: tuple.Int32}
}

// CharField declares a fixed-width string column.
func CharField(name string, size int) tuple.FieldDef {
	return tuple.FieldDef{Name: name, Type: tuple.Char, Size: size}
}

// NewSchema builds a schema; key names the unique tuple-identifier column
// (must be Int64).
func NewSchema(key string, fields ...tuple.FieldDef) (*Schema, error) {
	return tuple.NewDesc(key, fields...)
}

// MustSchema is NewSchema that panics on error.
func MustSchema(key string, fields ...tuple.FieldDef) *Schema {
	return tuple.MustDesc(key, fields...)
}

// Value constructors.

// Int makes an integer value.
func Int(v int64) tuple.Value { return tuple.VInt(v) }

// Str makes a string value.
func Str(s string) tuple.Value { return tuple.VStr(s) }

// Row builds a tuple from user values (timestamps managed by the system).
func Row(s *Schema, values ...tuple.Value) tuple.Tuple {
	return tuple.MustMake(s, values...)
}

// Tuple is a stored row; its methods expose the key and the insertion /
// deletion timestamps that power time travel.
type Tuple = tuple.Tuple

// Timestamp is a logical commit time.
type Timestamp = tuple.Timestamp

// Options configures a cluster.
type Options struct {
	// Workers is the number of worker sites (≥ 1). Tables default to full
	// replication on every worker, giving (Workers-1)-safety.
	Workers int
	// Dir is the root directory for all site state.
	Dir string
	// Protocol selects the commit protocol (default OptThreePC).
	Protocol txn.Protocol
	// Mode selects the recovery mechanism (default HARBOR).
	Mode worker.RecoveryMode
	// CheckpointEvery enables periodic checkpoints (default 1s; the thesis
	// found 1–10 s costs under ~9.5% throughput, §6.3).
	CheckpointEvery time.Duration
	// SegPages is the default segment size in pages (default 256 ≙ 1 MB).
	SegPages int32
	// GroupCommit batches log forces (meaningful for logging protocols).
	GroupCommit bool
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Protocol == 0 {
		o.Protocol = OptThreePC
	}
	if o.Mode == 0 {
		o.Mode = HARBOR
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = time.Second
	}
	if o.SegPages == 0 {
		o.SegPages = 256
	}
	return o
}

// Cluster is a running deployment.
type Cluster struct {
	opts    Options
	Catalog *catalog.Catalog
	Coord   *coord.Coordinator
	workers []*worker.Site
}

// Start launches the coordinator and workers.
func Start(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("harbor: Options.Dir is required")
	}
	cat := catalog.New(0)
	c := &Cluster{opts: opts, Catalog: cat}
	for i := 0; i < opts.Workers; i++ {
		site := catalog.SiteID(i + 1)
		w, err := worker.Open(worker.Config{
			Site:            site,
			Dir:             filepath.Join(opts.Dir, fmt.Sprintf("site%d", site)),
			Protocol:        opts.Protocol,
			Mode:            opts.Mode,
			CheckpointEvery: opts.CheckpointEvery,
			GroupCommit:     opts.GroupCommit,
			Catalog:         cat,
		})
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		cat.AddSite(site, w.Addr())
	}
	co, err := coord.New(coord.Config{
		Site:        0,
		Dir:         filepath.Join(opts.Dir, "site0"),
		Protocol:    opts.Protocol,
		Catalog:     cat,
		GroupCommit: opts.GroupCommit,
	})
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.Coord = co
	cat.AddSite(0, co.Addr())
	return c, nil
}

// Stop shuts the cluster down cleanly.
func (c *Cluster) Stop() {
	if c.Coord != nil {
		c.Coord.Close()
	}
	for _, w := range c.workers {
		if w != nil {
			w.Close()
		}
	}
}

// NumWorkers returns the worker count.
func (c *Cluster) NumWorkers() int { return len(c.workers) }

// Worker exposes a worker site (power users, examples, experiments).
func (c *Cluster) Worker(i int) *worker.Site { return c.workers[i] }

// CreateTable creates a table replicated in full on every worker
// ((Workers-1)-safety).
func (c *Cluster) CreateTable(id int32, schema *Schema) error {
	spec := &catalog.TableSpec{ID: id, Name: fmt.Sprintf("table%d", id), Desc: schema, SegPages: c.opts.SegPages}
	var reps []catalog.Replica
	for i := range c.workers {
		reps = append(reps, catalog.Replica{
			Site: catalog.SiteID(i + 1), Table: id,
			Range: expr.FullKeyRange(), SegPages: c.opts.SegPages,
		})
	}
	return c.Coord.CreateTable(spec, reps...)
}

// CreateTableOn creates a table replicated on specific workers with
// optional horizontal partitioning.
func (c *Cluster) CreateTableOn(id int32, schema *Schema, replicas ...Replica) error {
	spec := &catalog.TableSpec{ID: id, Name: fmt.Sprintf("table%d", id), Desc: schema, SegPages: c.opts.SegPages}
	reps := make([]catalog.Replica, len(replicas))
	for i, r := range replicas {
		rng := expr.FullKeyRange()
		if r.KeyLo != 0 || r.KeyHi != 0 {
			rng = expr.KeyRange{Lo: r.KeyLo, Hi: r.KeyHi}
		}
		segPages := r.SegPages
		if segPages == 0 {
			segPages = c.opts.SegPages
		}
		reps[i] = catalog.Replica{
			Site: catalog.SiteID(r.Worker + 1), Table: id, Range: rng, SegPages: segPages,
		}
	}
	return c.Coord.CreateTable(spec, reps...)
}

// Replica places (part of) a table on a worker. A zero KeyLo/KeyHi pair
// means the full key range; SegPages of 0 inherits the cluster default —
// replicas may use different segment sizes (non-identical physical
// formats, §3.1).
type Replica struct {
	Worker       int
	KeyLo, KeyHi int64
	SegPages     int32
}

// Begin starts a distributed update transaction.
func (c *Cluster) Begin() *coord.Txn { return c.Coord.Begin() }

// Query runs a read-only query over one table.
type Query struct {
	// AsOf > 0 runs a lock-free historical query as of that time (§3.3);
	// zero reads current data under read locks.
	AsOf Timestamp
	// Where filters rows (see Where / WhereKeyRange helpers).
	Where expr.Pred
}

// Query executes a read.
func (c *Cluster) Query(table int32, q Query) ([]Tuple, error) {
	return c.Coord.Scan(table, coord.QueryOptions{
		Historical: q.AsOf > 0,
		AsOf:       q.AsOf,
		Pred:       q.Where,
	})
}

// Now returns the latest safe historical time (the high water mark).
func (c *Cluster) Now() Timestamp { return c.Coord.Authority.HWM() }

// CrashWorker fail-stops a worker (testing, chaos drills).
func (c *Cluster) CrashWorker(i int) { c.workers[i].Crash() }

// RecoverWorker reboots a crashed worker over its surviving files and runs
// HARBOR's three-phase online recovery (or ARIES restart in ARIES mode).
// The cluster keeps processing transactions throughout.
func (c *Cluster) RecoverWorker(i int) (*core.SiteStats, error) {
	old := c.workers[i]
	if !old.Crashed() {
		return nil, fmt.Errorf("harbor: worker %d has not crashed", i)
	}
	w, err := worker.Open(worker.Config{
		Site:            old.Cfg.Site,
		Dir:             old.Cfg.Dir,
		Protocol:        c.opts.Protocol,
		Mode:            c.opts.Mode,
		CheckpointEvery: c.opts.CheckpointEvery,
		GroupCommit:     c.opts.GroupCommit,
		Catalog:         c.Catalog,
	})
	if err != nil {
		return nil, err
	}
	c.workers[i] = w
	c.Catalog.AddSite(old.Cfg.Site, w.Addr())
	if c.opts.Mode == ARIES {
		if _, err := w.RecoverARIES(); err != nil {
			return nil, err
		}
		return &core.SiteStats{}, nil
	}
	return core.New(w, c.Catalog).RecoverSite(core.Options{Parallel: true})
}

// BulkLoad appends one pre-stamped segment of rows to every replica of the
// table — the §4.2 bulk-load feature warehouses use for daily or hourly
// loads. The whole batch becomes visible atomically with one insertion
// timestamp, which BulkLoad returns. The rows bypass the transaction path
// entirely (no locks, no commit protocol); the segment appears as already
// committed history.
func (c *Cluster) BulkLoad(table int32, rows []Tuple) (Timestamp, error) {
	ts := c.Coord.Authority.Issue()
	defer c.Coord.Authority.Complete(ts)
	stamped := make([]Tuple, len(rows))
	for i, r := range rows {
		t := r.Clone()
		t.SetInsTS(ts)
		t.SetDelTS(0)
		stamped[i] = t
	}
	for _, w := range c.workers {
		if !w.Mgr.Has(table) {
			continue
		}
		tb, err := w.Mgr.Get(table)
		if err != nil {
			return 0, err
		}
		if _, err := tb.Heap.BulkLoadSegment(stamped); err != nil {
			return 0, err
		}
		if err := rebuildIndexes(w); err != nil {
			return 0, err
		}
		w.SeedAppliedTS(ts)
	}
	return ts, nil
}

// rebuildIndexes re-derives a worker's key indexes, and the page key bounds
// scans prune by, from its heap files. The rebuild reads the files, not the
// buffer pool, so dirty pages are written out first: rows that so far live
// only in the pool must not drop out of the index.
func rebuildIndexes(w *worker.Site) error {
	if err := w.Pool.FlushAll(); err != nil {
		return err
	}
	return w.Mgr.RebuildIndexes()
}

// DropOldestSegment atomically drops the oldest segment of the table on
// every replica — the §4.2 bulk-drop feature clickthrough warehouses use to
// retire expired data and reclaim its space.
func (c *Cluster) DropOldestSegment(table int32) error {
	for _, w := range c.workers {
		if !w.Mgr.Has(table) {
			continue
		}
		tb, err := w.Mgr.Get(table)
		if err != nil {
			return err
		}
		if err := tb.Heap.DropOldestSegment(); err != nil {
			return err
		}
		if err := rebuildIndexes(w); err != nil {
			return err
		}
	}
	return nil
}

// Vacuum purges, on every worker, all tuple versions deleted at or before
// (Now() - retention) — §3.3's configurable amount of history. Time travel
// remains exact for every AsOf within the retention window. It returns the
// total number of versions purged across replicas.
func (c *Cluster) Vacuum(retention Timestamp) (int, error) {
	horizon := c.Now() - retention
	if horizon <= 0 {
		return 0, nil
	}
	total := 0
	for _, w := range c.workers {
		if w.Crashed() {
			continue
		}
		n, err := w.Store.VacuumAll(horizon)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SegmentCount returns the number of segments a worker's replica holds.
func (c *Cluster) SegmentCount(workerIdx int, table int32) (int, error) {
	tb, err := c.workers[workerIdx].Mgr.Get(table)
	if err != nil {
		return 0, err
	}
	return tb.Heap.NumSegments(), nil
}

// Where builds a single-column comparison predicate.
func Where(s *Schema, field string, op expr.Op, v tuple.Value) expr.Pred {
	idx := s.FieldIndex(field)
	return expr.True.And(expr.Term{Field: idx, Op: op, Value: v})
}

// Comparison operators for Where.
const (
	EQ = expr.EQ
	NE = expr.NE
	LT = expr.LT
	LE = expr.LE
	GT = expr.GT
	GE = expr.GE
)
