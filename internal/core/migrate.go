package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// MigrateSpec describes one segment transfer onto a target site.
type MigrateSpec struct {
	Table int32
	// Range is the half-open key range to transfer.
	Range expr.KeyRange
	// DropFrom, when nonzero, names the donor site whose coverage of Range
	// is withdrawn (and physically purged) once the target is Ready — a
	// genuine move. Zero adds coverage without removing any (a join).
	DropFrom catalog.SiteID
	// SegPages overrides the table's default segment size for a replica
	// created on the target (0 uses the table spec's).
	SegPages int32
}

// Migrate is the second caller of the segment-transfer engine: it streams
// one key range of one table from the range's live holders onto this site
// while the cluster keeps serving, then flips catalog placement atomically
// under the engine's Phase 3 table locks. The transfer reuses the recovery
// state machine verbatim — the carved segment walks NeedsRecovery →
// HistoricalCopy → Catchup → Ready, so mid-migration reads and writes are
// gated (and fault-in prioritised) by exactly the rules crash recovery
// already obeys. With DropFrom set, the donor's coverage is withdrawn after
// the flip (K-safety-guarded at the coordinator) and its copy of the range
// physically purged.
//
// Limitation: if the target crashes after copying but before the placement
// flip, the copied rows linger locally until the target's next RecoverSite,
// which purges every range the catalog does not assign to it.
func Migrate(site *worker.Site, cat *catalog.Catalog, spec MigrateSpec, opt Options) (ObjectStats, error) {
	opt = opt.withDefaults()
	st := ObjectStats{Table: spec.Table}
	if spec.Range.Empty() {
		return st, nil
	}
	r := newEngine(site, cat)

	// The target may have never heard of the table (a cold joiner).
	spec2, ok := cat.Table(spec.Table)
	if !ok {
		return st, fmt.Errorf("core: migrate of unknown table %d", spec.Table)
	}
	segPages := spec.SegPages
	if segPages == 0 {
		segPages = spec2.SegPages
	}
	if !site.Mgr.Has(spec.Table) {
		if err := site.CreateTable(spec.Table, spec2.Desc, segPages); err != nil {
			return st, err
		}
	}
	tb, err := site.Mgr.Get(spec.Table)
	if err != nil {
		return st, err
	}
	rep := catalog.Replica{Site: site.Cfg.Site, Table: spec.Table, Range: spec.Range, SegPages: segPages}
	reg, tr := site.Obs(), site.Trace()

	err = withRetries(opt, func() error {
		st = ObjectStats{Table: spec.Table}
		t0 := time.Now()
		traceID := int64(r.ids.Next())
		tr.Recordf(traceID, obs.EvRecovery, "migrate start table=%d range=[%d,%d)",
			spec.Table, spec.Range.Lo, spec.Range.Hi)

		// Idempotency reset: a previous attempt (or incarnation) may have
		// left a partial copy; delete it rather than double-apply. No purge
		// note — the range is about to become legitimately resident.
		if _, err := site.PurgeRange(spec.Table, spec.Range); err != nil {
			return err
		}
		site.CarveSegmentState(spec.Table, spec.Range, worker.ObjNeedsRecovery, 0)

		// Copy rounds start at 0: the first round's deletion pass is a
		// cheap no-op (nothing local inserted at or before 0) and its
		// insertion pass copies the range's full history — tuples arrive
		// carrying their original insertion and deletion stamps, so the
		// copied prefix serves historical reads the moment its horizon
		// covers them, exactly like a recovering segment. The locked
		// catch-up then installs this site's coverage of the range at the
		// coordinator while the donor table locks still exclude commits;
		// the object-online announcement joins pending transactions
		// (§5.4.2), whose replay is range-filtered to this replica's
		// segments.
		finalT, err := r.transfer(tb, rep, transferSpec{
			whole: spec.Range,
			segs:  []expr.KeyRange{spec.Range},
			underLock: func() error {
				_, err := placementChange(cat, true, rep)
				return err
			},
		}, opt, &st, traceID)
		reg.Counter("migrate.copied.tuples").Add(int64(st.Phase2Deletes + st.Phase2Inserts))
		if err != nil {
			return err
		}
		site.ClearPurgedRange(spec.Table, spec.Range)
		st.Total = time.Since(t0)
		reg.Counter("migrate.ranges").Inc()
		tr.Recordf(traceID, obs.EvRecovery, "migrate done table=%d range=[%d,%d) finalT=%d inserts=%d",
			spec.Table, spec.Range.Lo, spec.Range.Hi, finalT, st.Phase2Inserts+st.Phase3Inserts)
		return nil
	})
	if err != nil {
		// The carved segment is not servable; leave it demoted so the gate
		// keeps refusing reads into the partial copy.
		site.CarveSegmentState(spec.Table, spec.Range, worker.ObjNeedsRecovery, 0)
		return st, err
	}

	if spec.DropFrom != 0 {
		donor := catalog.Replica{Site: spec.DropFrom, Table: spec.Table, Range: spec.Range}
		if _, err := placementChange(cat, false, donor); err != nil {
			return st, fmt.Errorf("core: withdrawing donor %d coverage of [%d,%d): %w",
				spec.DropFrom, spec.Range.Lo, spec.Range.Hi, err)
		}
		// Physical cleanup at the donor. A donor that died between the flip
		// and the purge is tolerated: its next RecoverSite purges every range
		// the catalog no longer assigns to it.
		if _, err := purgeRemote(cat, spec.DropFrom, spec.Table, spec.Range); err != nil {
			site.Obs().Counter("migrate.donor_purge_deferred").Inc()
		}
	}
	return st, nil
}

// Join brings a cold site into the cluster while it serves: register the
// site's address with the coordinator, take the advisory assignment the
// coordinator hands back, and stream each assigned range in via Migrate.
// Existing sites keep their coverage (DropFrom is zero); rebalancing load
// off them afterwards is PlanSplit + Migrate with a donor.
func Join(site *worker.Site, cat *catalog.Catalog, opt Options) error {
	resp, err := call(cat, cat.Coordinator(), &wire.Msg{
		Type: wire.MsgJoinSite, Site: int32(site.Cfg.Site), Text: site.Addr(),
	})
	if err != nil {
		return err
	}
	if resp.Type != wire.MsgOK {
		return fmt.Errorf("core: join refused: %s", resp.Text)
	}
	var errs []error
	for _, o := range resp.Objs {
		spec := MigrateSpec{Table: o.Table, Range: expr.KeyRange{Lo: o.Lo, Hi: o.Hi}}
		if _, err := Migrate(site, cat, spec, opt); err != nil {
			errs = append(errs, fmt.Errorf("core: join transfer of table %d: %w", o.Table, err))
		}
	}
	return errors.Join(errs...)
}

// PlanSplit proposes splitting a donor's coverage of table at the median of
// its local key distribution, yielding the MigrateSpec that moves the upper
// half elsewhere. ok=false when the donor holds no splittable range of the
// table (no replica, or too few keys to name a quantile bound inside it).
func PlanSplit(donor *worker.Site, cat *catalog.Catalog, table int32) (MigrateSpec, bool) {
	tb, err := donor.Mgr.Get(table)
	if err != nil {
		return MigrateSpec{}, false
	}
	bounds := tb.Index.Quantiles(2)
	if len(bounds) == 0 {
		return MigrateSpec{}, false
	}
	mid := bounds[0]
	for _, rep := range cat.ReplicasOn(donor.Cfg.Site) {
		if rep.Table != table {
			continue
		}
		if rep.Range.Contains(mid) && mid > rep.Range.Lo {
			return MigrateSpec{
				Table:    table,
				Range:    expr.KeyRange{Lo: mid, Hi: rep.Range.Hi},
				DropFrom: donor.Cfg.Site,
				SegPages: rep.SegPages,
			}, true
		}
	}
	return MigrateSpec{}, false
}

// LeastLoadedSite picks the worker site carrying the fewest replica ranges,
// excluding the given sites (and the coordinator). Ties break toward the
// highest SiteID — the most recently joined site tends to be emptiest.
func LeastLoadedSite(cat *catalog.Catalog, exclude ...catalog.SiteID) (catalog.SiteID, bool) {
	skip := map[catalog.SiteID]bool{cat.Coordinator(): true}
	for _, s := range exclude {
		skip[s] = true
	}
	best := catalog.SiteID(0)
	bestN := -1
	for _, s := range cat.Sites() {
		if skip[s] {
			continue
		}
		n := len(cat.ReplicasOn(s))
		if bestN < 0 || n < bestN || (n == bestN && s > best) {
			best, bestN = s, n
		}
	}
	return best, bestN >= 0
}

// placementChange asks the coordinator to install (add=true) or withdraw a
// replica range, returning the new placement version. The coordinator
// drains reads planned against the previous placement before answering, so
// a withdraw may be followed immediately by a physical purge.
func placementChange(cat *catalog.Catalog, add bool, rep catalog.Replica) (int64, error) {
	m := &wire.Msg{Type: wire.MsgPlacementChange, Site: int32(rep.Site), Table: rep.Table,
		KeyLo: rep.Range.Lo, KeyHi: rep.Range.Hi, SegPages: rep.SegPages}
	if add {
		m.Flags |= wire.FlagYes
	}
	resp, err := call(cat, cat.Coordinator(), m)
	if err != nil {
		return 0, err
	}
	if resp.Type != wire.MsgOK {
		return 0, resp.Err()
	}
	return int64(resp.TS), nil
}

// purgeRemote asks a site to physically delete its copy of a range (and
// refuse placement-stale scans into it from then on).
func purgeRemote(cat *catalog.Catalog, site catalog.SiteID, table int32, rng expr.KeyRange) (int64, error) {
	resp, err := call(cat, site, &wire.Msg{Type: wire.MsgPurgeRange, Table: table, KeyLo: rng.Lo, KeyHi: rng.Hi})
	if err != nil {
		return 0, err
	}
	if resp.Type != wire.MsgOK {
		return 0, resp.Err()
	}
	return resp.Count, nil
}

// uncoveredRanges returns full minus the union of held — the ranges a site
// physically holds no claim to. Crash recovery purges them: a donor that
// died after its coverage moved away but before the post-move purge would
// otherwise revive rows the placement no longer assigns to it.
func uncoveredRanges(full expr.KeyRange, held []expr.KeyRange) []expr.KeyRange {
	hs := make([]expr.KeyRange, 0, len(held))
	for _, h := range held {
		h = h.Intersect(full)
		if !h.Empty() {
			hs = append(hs, h)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Lo < hs[j].Lo })
	var gaps []expr.KeyRange
	cur := full.Lo
	covered := false // whether cur has reached full.Hi's unbounded end
	for _, h := range hs {
		if h.Lo > cur {
			gaps = append(gaps, expr.KeyRange{Lo: cur, Hi: h.Lo})
		}
		if h.Hi > cur {
			cur = h.Hi
		}
		if h.Hi == full.Hi {
			covered = true
		}
	}
	if !covered && cur < full.Hi {
		gaps = append(gaps, expr.KeyRange{Lo: cur, Hi: full.Hi})
	}
	return gaps
}
