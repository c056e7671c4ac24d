// Package testutil spins up in-process HARBOR clusters on ephemeral ports
// and temp directories for integration tests, benches, and examples. The
// sites are real TCP servers with real on-disk state; only process
// boundaries are elided.
package testutil

import (
	"fmt"
	"os"
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

// ClusterConfig configures a test cluster.
type ClusterConfig struct {
	Workers         int
	Protocol        txn.Protocol
	Mode            worker.RecoveryMode
	GroupCommit     bool
	SyncDelay       time.Duration // simulated per-fsync disk latency
	CheckpointEvery time.Duration
	PoolFrames      int
	LockTimeout     time.Duration
	BaseDir         string // required: root directory for site state
	// RoundTimeout bounds each per-replica call of a coordinator fan-out
	// round (0 = wait forever).
	RoundTimeout time.Duration
	// DialTimeout bounds each coordinator→worker dial (0 = comm default).
	DialTimeout time.Duration
}

// Cluster is a one-coordinator, N-worker deployment (the thesis used one
// coordinator and up to three workers on four nodes).
type Cluster struct {
	Cfg     ClusterConfig
	Catalog *catalog.Catalog
	Coord   *coord.Coordinator
	Workers []*worker.Site // index 0 ↔ site id 1, etc.
}

// WorkerSiteID returns the catalog site id of worker index i.
func WorkerSiteID(i int) catalog.SiteID { return catalog.SiteID(i + 1) }

// NewCluster builds and starts the cluster. Site 0 is the coordinator;
// sites 1..N are workers.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.BaseDir == "" {
		return nil, fmt.Errorf("testutil: BaseDir required")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	cat := catalog.New(0)
	cl := &Cluster{Cfg: cfg, Catalog: cat}

	// Workers first (the coordinator needs their addresses only lazily, but
	// the catalog wants them registered).
	for i := 0; i < cfg.Workers; i++ {
		site := WorkerSiteID(i)
		w, err := cl.openWorker(site, filepath.Join(cfg.BaseDir, fmt.Sprintf("site%d", site)))
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Workers = append(cl.Workers, w)
		cat.AddSite(site, w.Addr())
	}
	co, err := coord.New(coord.Config{
		Site:         0,
		Dir:          filepath.Join(cfg.BaseDir, "site0"),
		Protocol:     cfg.Protocol,
		Catalog:      cat,
		GroupCommit:  cfg.GroupCommit,
		SyncDelay:    cfg.SyncDelay,
		RoundTimeout: cfg.RoundTimeout,
		LockTimeout:  cfg.LockTimeout,
		DialTimeout:  cfg.DialTimeout,
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.Coord = co
	cat.AddSite(0, co.Addr())
	return cl, nil
}

// CreateReplicatedTable creates a table replicated in full on the given
// workers (defaults to all workers).
func (cl *Cluster) CreateReplicatedTable(id int32, desc *tuple.Desc, segPages int32, workers ...int) error {
	if len(workers) == 0 {
		for i := range cl.Workers {
			workers = append(workers, i)
		}
	}
	spec := &catalog.TableSpec{ID: id, Name: fmt.Sprintf("t%d", id), Desc: desc, SegPages: segPages}
	var reps []catalog.Replica
	for _, i := range workers {
		reps = append(reps, catalog.Replica{
			Site: WorkerSiteID(i), Table: id, Range: expr.FullKeyRange(), SegPages: segPages,
		})
	}
	return cl.Coord.CreateTable(spec, reps...)
}

// CreatePartitionedTable creates a table horizontally partitioned across
// the first two workers at the split key: worker 0 holds keys < split,
// worker 1 holds keys >= split (no replication — a distributed scan must
// visit both sites).
func (cl *Cluster) CreatePartitionedTable(id int32, desc *tuple.Desc, segPages int32, split int64) error {
	return cl.CreateRangePartitionedTable(id, desc, segPages, split)
}

// CreateRangePartitionedTable creates a table horizontally range-partitioned
// across the first len(splits)+1 workers at the given strictly ascending
// split keys: worker i holds [splits[i-1], splits[i]) with the outer bounds
// unbounded (no replication — a distributed scan must visit every site).
func (cl *Cluster) CreateRangePartitionedTable(id int32, desc *tuple.Desc, segPages int32, splits ...int64) error {
	n := len(splits) + 1
	if n < 2 {
		return fmt.Errorf("testutil: range-partitioned table needs >= 1 split key")
	}
	if len(cl.Workers) < n {
		return fmt.Errorf("testutil: %d-way partitioned table needs >= %d workers", n, n)
	}
	full := expr.FullKeyRange()
	bounds := make([]int64, 0, n+1)
	bounds = append(bounds, full.Lo)
	bounds = append(bounds, splits...)
	bounds = append(bounds, full.Hi)
	for i := 2; i < len(bounds)-1; i++ {
		if bounds[i] <= bounds[i-1] {
			return fmt.Errorf("testutil: split keys must be strictly ascending, got %v", splits)
		}
	}
	spec := &catalog.TableSpec{ID: id, Name: fmt.Sprintf("t%d", id), Desc: desc, SegPages: segPages}
	reps := make([]catalog.Replica, 0, n)
	for i := 0; i < n; i++ {
		reps = append(reps, catalog.Replica{
			Site: WorkerSiteID(i), Table: id,
			Range: expr.KeyRange{Lo: bounds[i], Hi: bounds[i+1]}, SegPages: segPages,
		})
	}
	return cl.Coord.CreateTable(spec, reps...)
}

// AddWorker opens the cold N+1th worker site and appends it to the cluster
// without giving it any data: the caller drives core.Join (or Migrate) to
// stream replicas onto it while the cluster serves. The site directory is
// BaseDir/site<id>, matching NewCluster's layout.
func (cl *Cluster) AddWorker() (*worker.Site, error) {
	i := len(cl.Workers)
	site := WorkerSiteID(i)
	w, err := cl.openWorker(site, filepath.Join(cl.Cfg.BaseDir, fmt.Sprintf("site%d", site)))
	if err != nil {
		return nil, err
	}
	cl.Workers = append(cl.Workers, w)
	cl.Catalog.AddSite(site, w.Addr())
	return w, nil
}

// RestartWorker replaces a crashed worker with a fresh Site over the same
// directory (simulating a reboot) and repoints the catalog at its new
// address. ARIES recovery is NOT run automatically.
func (cl *Cluster) RestartWorker(i int) (*worker.Site, error) {
	old := cl.Workers[i]
	if !old.Crashed() {
		old.Crash()
	}
	site := WorkerSiteID(i)
	w, err := cl.openWorker(site, old.Cfg.Dir)
	if err != nil {
		return nil, err
	}
	cl.Workers[i] = w
	cl.Catalog.AddSite(site, w.Addr())
	return w, nil
}

// openWorker opens one worker site over dir with the cluster's settings and
// its online torn-page repair armed.
func (cl *Cluster) openWorker(site catalog.SiteID, dir string) (*worker.Site, error) {
	return core.OpenSite(worker.Config{
		Site:            site,
		Dir:             dir,
		Protocol:        cl.Cfg.Protocol,
		Mode:            cl.Cfg.Mode,
		PoolFrames:      cl.Cfg.PoolFrames,
		LockTimeout:     cl.Cfg.LockTimeout,
		CheckpointEvery: cl.Cfg.CheckpointEvery,
		GroupCommit:     cl.Cfg.GroupCommit,
		SyncDelay:       cl.Cfg.SyncDelay,
		Catalog:         cl.Catalog,
	})
}

// Close shuts everything down.
func (cl *Cluster) Close() {
	if cl.Coord != nil {
		cl.Coord.Close()
	}
	for _, w := range cl.Workers {
		if w != nil {
			w.Close()
		}
	}
}

// TempBase returns a fresh temp directory for a cluster (caller removes).
func TempBase(prefix string) (string, func(), error) {
	dir, err := os.MkdirTemp("", prefix)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
