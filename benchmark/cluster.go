package main

import (
	"fmt"
	"path/filepath"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// loadTS is the commit time every preloaded row carries; the authority is
// advanced past it before the first transaction runs.
const loadTS tuple.Timestamp = 1

// lockTimeout is generous against any wait the workloads can produce: the
// clients never conflict, so a timeout is a failed operation, not noise.
const lockTimeout = 5 * time.Second

// clusterConfig is what the five workloads vary about a deployment.
type clusterConfig struct {
	workers     int
	protocol    txn.Protocol
	mode        worker.RecoveryMode
	groupCommit bool
	syncDelay   time.Duration
	poolFrames  int
	dir         string
}

// cluster is one coordinator (site 0) and N workers (sites 1..N) in this
// process: real TCP servers on loopback and real files under dir, with only
// the process boundaries elided.
type cluster struct {
	cfg     clusterConfig
	cat     *catalog.Catalog
	coord   *coord.Coordinator
	workers []*worker.Site
}

func siteID(worker int) catalog.SiteID { return catalog.SiteID(worker + 1) }

func newCluster(cfg clusterConfig) (*cluster, error) {
	cl := &cluster{cfg: cfg, cat: catalog.New(0)}
	for i := 0; i < cfg.workers; i++ {
		if _, err := cl.openWorker(i); err != nil {
			cl.close()
			return nil, err
		}
	}
	co, err := coord.New(coord.Config{
		Site:        0,
		Dir:         filepath.Join(cfg.dir, "site0"),
		Protocol:    cfg.protocol,
		Catalog:     cl.cat,
		GroupCommit: cfg.groupCommit,
		SyncDelay:   cfg.syncDelay,
		LockTimeout: lockTimeout,
	})
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.coord = co
	cl.cat.AddSite(0, co.Addr())
	return cl, nil
}

// siteDir is where worker i keeps its files.
func (cl *cluster) siteDir(i int) string {
	return filepath.Join(cl.cfg.dir, fmt.Sprintf("site%d", siteID(i)))
}

// openWorker opens (or, after a crash, re-opens) worker i over its
// directory and points the catalog at its new address.
func (cl *cluster) openWorker(i int) (*worker.Site, error) {
	id := siteID(i)
	w, err := worker.Open(worker.Config{
		Site:        id,
		Dir:         cl.siteDir(i),
		Protocol:    cl.cfg.protocol,
		Mode:        cl.cfg.mode,
		PoolFrames:  cl.cfg.poolFrames,
		LockTimeout: lockTimeout,
		GroupCommit: cl.cfg.groupCommit,
		SyncDelay:   cl.cfg.syncDelay,
		Catalog:     cl.cat,
	})
	if err != nil {
		return nil, err
	}
	// Online torn-page repair from a buddy, as cmd/harbor-worker arms it.
	rec := core.New(w, cl.cat)
	w.SetRepairHook(func(table int32) error {
		_, err := rec.RepairTable(table)
		return err
	})
	if i < len(cl.workers) {
		cl.workers[i] = w
	} else {
		cl.workers = append(cl.workers, w)
	}
	cl.cat.AddSite(id, w.Addr())
	return w, nil
}

// close stops every site; a nil cluster (set-up failed before building one)
// has none.
func (cl *cluster) close() {
	if cl == nil {
		return
	}
	if cl.coord != nil {
		cl.coord.Close()
	}
	for _, w := range cl.workers {
		w.Close()
	}
}

// createTable registers table id with one replica per (worker, range) pair.
func (cl *cluster) createTable(id int32, desc *tuple.Desc, segPages int32, placement map[int]expr.KeyRange) error {
	spec := &catalog.TableSpec{ID: id, Name: fmt.Sprintf("t%d", id), Desc: desc, SegPages: segPages}
	var reps []catalog.Replica
	for i := 0; i < cl.cfg.workers; i++ {
		if rng, ok := placement[i]; ok {
			reps = append(reps, catalog.Replica{Site: siteID(i), Table: id, Range: rng, SegPages: segPages})
		}
	}
	return cl.coord.CreateTable(spec, reps...)
}

// bulkLoad writes rows [lo, hi) of table id on worker i as pre-stamped
// committed tuples (the §4.2 bulk-load path), one segment per chunk.
func (cl *cluster) bulkLoad(i int, id int32, desc *tuple.Desc, lo, hi int64) error {
	tb, err := cl.workers[i].Mgr.Get(id)
	if err != nil {
		return err
	}
	const chunk = 8192
	for lo < hi {
		n := hi - lo
		if n > chunk {
			n = chunk
		}
		batch := make([]tuple.Tuple, n)
		for k := range batch {
			batch[k] = loadedRow(desc, lo+int64(k))
		}
		if _, err := tb.Heap.BulkLoadSegment(batch); err != nil {
			return err
		}
		lo += n
	}
	return nil
}

// sealLoad makes the preload the cluster's committed past: the authority
// moves beyond loadTS, and every worker records it as applied, checkpoints
// and indexes it.
func (cl *cluster) sealLoad() error {
	cl.coord.Authority.Advance(loadTS + 1)
	for _, w := range cl.workers {
		w.SeedAppliedTS(loadTS + 1)
		if err := w.CheckpointNow(); err != nil {
			return err
		}
		if err := w.Mgr.RebuildIndexes(); err != nil {
			return err
		}
	}
	return nil
}

// registries returns every live site's metrics registry, coordinator first.
func (cl *cluster) registries() []*obs.Registry {
	regs := []*obs.Registry{cl.coord.Obs()}
	for _, w := range cl.workers {
		if !w.Crashed() {
			regs = append(regs, w.Obs())
		}
	}
	return regs
}
