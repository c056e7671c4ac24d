// The segment-transfer engine: HARBOR's Phase 2/3 catch-up machinery
// factored out of "this site crashed". The primitive it implements is
// "copy a consistent, timestamped key range from a live buddy without
// blocking writers": a historical SEE DELETED window copy (lock-free,
// Phase 2) followed by a locked catch-up that drains the stragglers and
// fixes a final consistent time (Phase 3). Two callers drive it:
//
//	Recoverer.RecoverSite — crash recovery (recover.go), behavior-identical
//	    to the pre-extraction code path;
//	Migrate — online data movement (migrate.go): node join and segment
//	    split/rebalance stream a key range onto a live or cold site while
//	    the cluster serves, then flip catalog placement atomically under
//	    the donor table locks.
package core

import (
	"sync"

	"harbor/internal/catalog"
	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// engine holds the transfer-level state shared by every caller: the target
// site the data lands on, the catalog the source plans come from, and the
// fault-in hot ranges that order segment copies. It is deliberately
// unexported — callers construct a Recoverer (crash recovery) or call
// Migrate/Join (data movement); the engine is the mechanism, not the policy.
type engine struct {
	Site *worker.Site
	Cat  *catalog.Catalog

	ids *txn.IDSource
	// noPrune mirrors Options.DisablePruning for the remote scans.
	noPrune bool

	// hotRanges records, per table, the key ranges refused reads faulted in
	// (fed by the site's fault-in hook). Phase 2 copies the segments those
	// ranges intersect first, so the read that is actually waiting becomes
	// servable again after copying a fraction of its table.
	hotMu     sync.Mutex
	hotRanges map[int32][]expr.KeyRange
}

// newEngine builds a transfer engine targeting one site.
func newEngine(site *worker.Site, cat *catalog.Catalog) *engine {
	return &engine{Site: site, Cat: cat,
		ids:       txn.NewIDSource(int32(site.Cfg.Site) + 1<<20),
		hotRanges: map[int32][]expr.KeyRange{}}
}

// catchupOpts parameterize the locked catch-up (phase3) for its callers.
type catchupOpts struct {
	// writeObjCkpt records the per-object recovery checkpoint at the final
	// time. Crash recovery wants this (it is the object's resume point);
	// migration must NOT — the object checkpoint speaks for the whole
	// object, and a migration only guarantees the transferred range.
	writeObjCkpt bool
	// mark advances the servable horizon once the locked copy is drained
	// and durable: the whole object for crash recovery, just the
	// transferred segment for migration.
	mark func(ct tuple.Timestamp)
	// underLock, if set, runs while the donor table locks are still held,
	// after mark and before the object-online announce. Migration flips
	// catalog placement here so no commit can slip between the copied
	// horizon and the new routing.
	underLock func(finalT tuple.Timestamp) error
}
