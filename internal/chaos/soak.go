package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/testutil"
	"harbor/internal/txn"
)

// This file is the compound-chaos soak driver: a wall-clock-bounded loop of
// chaos rounds, each one a zipfian update workload under the full fault
// stack — network partitions, a worker crash materializing seeded
// torn/dropped writes, a lying-fsync era, and direct page corruption both
// under the downed site (repaired by recovery's Phase 0 scrub) and under a
// RUNNING site (repaired online from a buddy, no restart). Every round ends
// with the four standing invariants; a violation report carries the seed
// and the executed fault schedule, which replay the round exactly.

// SoakOptions configures one soak run.
type SoakOptions struct {
	Seed     int64
	Duration time.Duration // wall-clock budget; at least one round always runs
	BaseDir  string
	Logf     func(format string, args ...any) // optional per-round progress sink
}

// soakCommitP99SLO is the per-round commit-latency ceiling the soak flags
// against: generous enough for lock waits, partitions and round-timeout
// evictions (all sub-second by harness config), but far below a round whose
// commits stalled for a whole multi-second recovery window — the regression
// the flag exists to catch.
const soakCommitP99SLO = 5 * time.Second

// SoakResult aggregates the rounds. Violations empty = every invariant held
// in every round. SLOBreaches counts rounds whose commit p99 blew through
// soakCommitP99SLO — a latency flag, deliberately separate from the
// correctness violations: the invariants say the data healed, the SLO says
// whether queries could get at it meanwhile.
type SoakResult struct {
	Rounds int
	// CompoundRounds counts rounds that ran the compound fault schedule
	// (the others ran the join/rebalance rotation, which tears no pages —
	// the corruption-path assertions only apply when this is nonzero).
	CompoundRounds int
	Commits        int
	Aborts         int
	CorruptPages   int
	PageRepairs    int
	ScrubPages     int
	ScrubRepairs   int
	SLOBreaches    int
	Violations     []string
	Schedules      []string // executed fault schedules of the violating rounds
}

// Soak runs chaos rounds until the duration budget is spent, rotating
// through the worker-logless commit protocols. Round r runs under seed
// Seed+r; re-running with SOAK_SEED set to a violating round's seed (and a
// zero duration) replays that round exactly, protocol choice included.
func Soak(opt SoakOptions) (*SoakResult, error) {
	protos := recoveryProtocols()
	res := &SoakResult{}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < opt.Duration; round++ {
		seed := opt.Seed + int64(round)
		// Protocol keyed to the seed, not the round index, so one round
		// replays in isolation from just its seed.
		p := protos[int(seed%int64(len(protos)))]
		sc := soakRound(p)
		// Every third round exercises online scale-out instead of the
		// compound fault schedule: node join under a donor kill, then a
		// segment split/rebalance — also keyed to the seed so the round
		// replays in isolation.
		if seed%3 == 2 {
			sc = JoinRebalance(p)
		} else {
			res.CompoundRounds++
		}
		r, err := Run(sc, seed, opt.BaseDir)
		if err != nil {
			return res, fmt.Errorf("soak round %d (%s seed=%d): %w", round, sc.Name, seed, err)
		}
		res.Rounds++
		res.Commits += r.Commits
		res.Aborts += r.Aborts
		res.CorruptPages += r.CorruptPages
		res.PageRepairs += r.PageRepairs
		res.ScrubPages += r.ScrubPages
		res.ScrubRepairs += r.ScrubRepairs
		if p99 := time.Duration(r.CommitP99NS); p99 > soakCommitP99SLO {
			res.SLOBreaches++
			if opt.Logf != nil {
				opt.Logf("soak round %d (%s seed=%d): SLO FLAG: commit p99 %v exceeds %v — commits stalled across a fault/recovery window",
					round, sc.Name, seed, p99, soakCommitP99SLO)
			}
		}
		if len(r.Violations) > 0 {
			res.Violations = append(res.Violations, r.Violations...)
			res.Schedules = append(res.Schedules,
				fmt.Sprintf("=== %s seed=%d: fault schedule as executed ===\n%s",
					r.Scenario, r.Seed, strings.Join(r.Trace, "\n")))
		} else {
			// A clean round's site directories are dead weight over a
			// minutes-long soak; violating rounds keep theirs for forensics.
			os.RemoveAll(filepath.Join(opt.BaseDir, fmt.Sprintf("%s-%d", sc.Name, seed)))
		}
		if opt.Logf != nil {
			opt.Logf("soak round %d (%s seed=%d): %d commits, %d aborts, %d corrupt pages, %d page repairs, %d scrubbed pages, %d scrub repairs, commit p99 %v, %d violations",
				round, sc.Name, seed, r.Commits, r.Aborts, r.CorruptPages, r.PageRepairs, r.ScrubPages, r.ScrubRepairs, time.Duration(r.CommitP99NS), len(r.Violations))
		}
	}
	return res, nil
}

// soakRound is one soak iteration: zipfian streams under the compound fault
// schedule — with background scrubbers ticking on every worker throughout,
// so proactive CRC verification runs concurrently with live flushes, crashes
// and repairs — then, once the cluster has healed and recovered, a torn page
// under a running worker that must be repaired online from a buddy.
func soakRound(p txn.Protocol) Scenario {
	return Scenario{
		Name:     "soak-" + protoTag(p),
		Protocol: p,
		Workers:  3,
		Drive: func(h *Harness) {
			// One scrubber per worker at a deliberately hot interval (a real
			// deployment would tick in minutes; the soak wants coverage in
			// seconds). A scrubber whose site crashes idles (skipping ticks)
			// until Stop reaps it.
			var scrubs []*core.Scrubber
			for i := range h.Cl.Workers {
				scrubs = append(scrubs, core.New(h.Cl.Workers[i], h.Cl.Catalog).StartScrubber(30*time.Millisecond))
			}
			h.RunZipfWorkload(4, 30, h.compoundFaults)
			for _, s := range scrubs {
				s.Stop()
			}
		},
		After: (*Harness).OnlineRepairProbe,
	}
}

// RunZipfWorkload is RunWorkload with zipfian streams: hot keys absorb most
// updates while a long tail stays cold — the skewed update pattern an
// updatable warehouse sees, and the one that keeps re-dirtying the same
// pages while faults land on their flushes.
func (h *Harness) RunZipfWorkload(streams, txnsPerStream int, faults func()) {
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h.zipfStream(s, txnsPerStream)
		}(s)
	}
	faults()
	wg.Wait()
}

// zipfStream is one soak client: single-op transactions whose keys come
// from a zipfian draw over the stream's private key space. First touch of a
// key inserts it; later touches mostly update, sometimes delete. The same
// opRec bookkeeping as stream() feeds the invariant checker.
func (h *Harness) zipfStream(s, n int) {
	rng := rand.New(rand.NewSource(h.Seed*104729 + int64(s)))
	zipf := rand.NewZipf(rng, 1.3, 4, 255)
	co := h.Cl.Coord
	base := int64(s+1) << 32
	live := map[int64]bool{}
	recs := make([]opRec, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			// Exercise the distributed read path mid-fault; contents are
			// verified post-heal, here only that scans don't wedge.
			_, _ = co.Scan(tableStreams, coord.QueryOptions{Historical: true})
			continue
		}
		key := base + int64(zipf.Uint64())
		kind := opInsert
		if live[key] {
			if rng.Intn(10) < 2 {
				kind = opDelete
			} else {
				kind = opUpdate
			}
		}
		rec := opRec{stream: s, kind: kind, key: key, val: int64(s+1)<<40 + int64(i)}
		tx := co.Begin()
		rec.id = tx.ID()
		var err error
		switch kind {
		case opInsert:
			err = tx.Insert(tableStreams, mkT(rec.key, rec.val))
		case opUpdate:
			err = tx.UpdateKey(tableStreams, rec.key, mkT(rec.key, rec.val))
		case opDelete:
			err = tx.DeleteKey(tableStreams, rec.key)
		}
		if err == nil {
			// Client think-time between write and COMMIT, so faults land on
			// the commit rounds too (see stream()).
			time.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		}
		if err != nil {
			_ = tx.Abort()
		} else if ts, cerr := tx.Commit(); cerr == nil {
			rec.clientOK, rec.clientTS = true, ts
			switch kind {
			case opInsert:
				live[key] = true
			case opDelete:
				delete(live, key)
			}
		}
		recs = append(recs, rec)
		time.Sleep(time.Duration(1+rng.Intn(7)) * time.Millisecond)
	}
	h.mu.Lock()
	h.ops = append(h.ops, recs)
	h.mu.Unlock()
}

// OnlineRepairProbe corrupts one flushed heap page under a RUNNING worker
// and verifies the online repair path end to end: a direct scan trips the
// CRC trailer check server-side, the worker's repair hook fetches the
// page's key range from a live buddy in the background, and the quarantine
// clears without a restart. It runs as a scenario After hook — on the
// healed, recovered cluster — because a meaningful probe needs a live,
// up-to-date buddy: tearing a page while the victim is the last good
// replica only proves that repair correctly declines, and leaves a
// quarantined page the round's invariant checks would trip over.
func (h *Harness) OnlineRepairProbe() {
	// Post-heal every worker should be running and back in the update set;
	// require both anyway so a failed recovery degrades this to a no-op
	// (the heal path's own checks report that failure) instead of a probe
	// against a cluster that cannot repair.
	var ready []int
	for i := range h.Cl.Workers {
		if !h.Cl.Workers[i].Crashed() && !h.Cl.Coord.SiteDown(testutil.WorkerSiteID(i)) {
			ready = append(ready, i)
		}
	}
	if len(ready) < 2 {
		return // need a victim plus at least one up-to-date buddy
	}
	vi := ready[h.rng.Intn(len(ready))]
	w := h.Cl.Workers[vi]
	before := w.Obs().Counter("recover.page_repairs").Load()
	// Flush everything and drop the cache so the poisoned page is actually
	// read from disk, not served from a clean frame.
	if err := w.CheckpointNow(); err != nil {
		return
	}
	w.Pool.DiscardAll()
	if !h.TearPage(vi, tableStreams) {
		return
	}
	// A direct scan trips the CRC trailer check server-side and arms the
	// background repair; the scan's own error is the expected signal, not a
	// problem. Re-scanning inside the poll loop re-arms the hook if an
	// earlier attempt lost its buddy mid-fetch (e.g. a crashed worker the
	// coordinator hadn't marked down yet).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _ = h.scanReplica(vi, h.Cl.Coord.Authority.HWM())
		if w.Obs().Counter("recover.page_repairs").Load() > before {
			return
		}
		if time.Now().After(deadline) {
			h.violatef("online repair: worker %d did not repair the torn page within 5s (repair errors=%d)",
				vi, w.Obs().Counter("recover.page_repair_errors").Load())
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}
