package storage

import (
	"sort"
	"sync"

	"harbor/internal/page"
	"harbor/internal/tuple"
)

// KeyIndex is the primary index on tuple identifiers (§6.1.5: "primary
// indices based on tuple identifiers"). It maps a logical tuple id to every
// stored version's record id — an update leaves both the deleted old version
// and the new version under the same key. Recovery Phase 2/3 use it to apply
// remote deletion timestamps by key (§5.3), and point queries use it to skip
// full scans.
//
// The index is an in-memory structure rebuilt from the heap file at open;
// like the thesis implementation it is not separately persisted, since it
// can always be derived from the data.
//
// Beside the postings it keeps, per page, conservative bounds on the keys
// stored there, so a scan with a key predicate can skip pages that cannot
// hold a qualifying tuple (see PageBounds).
type KeyIndex struct {
	mu    sync.RWMutex
	m     map[int64][]page.RecordID
	pages map[page.ID]*pageKeys
}

// pageKeys is one page's key bounds: every record id the index holds for
// the page was added under a key in [min, max]. n counts those record ids.
type pageKeys struct {
	min, max int64
	n        int
}

// NewKeyIndex returns an empty index.
func NewKeyIndex() *KeyIndex {
	return &KeyIndex{m: map[int64][]page.RecordID{}, pages: map[page.ID]*pageKeys{}}
}

// BuildKeyIndex scans every segment of the heap file and indexes each used
// slot by its key field.
func BuildKeyIndex(h *HeapFile) (*KeyIndex, error) {
	idx := NewKeyIndex()
	desc := h.Desc()
	err := h.ScanDirect(h.AllSegments(), func(rid page.RecordID, t tuple.Tuple) bool {
		idx.Add(t.Key(desc), rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// Add indexes a record id under key and widens its page's key bounds to
// include key. Every path that writes a tuple into a page calls Add before
// the tuple is published to readers (a transaction before its commit
// stamp, the transfer engine before the watermark that admits reads), so a
// page's bounds cover every tuple a reader may be owed from it.
func (x *KeyIndex) Add(key int64, rid page.RecordID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.m[key] = append(x.m[key], rid)
	pk := x.pages[rid.Page]
	if pk == nil {
		pk = &pageKeys{min: key, max: key}
		x.pages[rid.Page] = pk
	}
	pk.min, pk.max, pk.n = min(pk.min, key), max(pk.max, key), pk.n+1
}

// PageBounds returns the closed key interval covering every indexed tuple
// of the page. ok is false for a page the index knows nothing about — never
// indexed (bulk-loaded and not yet rebuilt), quarantined as corrupt, or
// emptied — and such a page must be visited, not skipped: only a visit
// finds unindexed tuples or trips the corruption that starts a repair.
// Bounds only ever widen while the page holds indexed tuples, so they stay
// correct, and merely lose selectivity, as updates scatter keys over pages.
func (x *KeyIndex) PageBounds(pid page.ID) (lo, hi int64, ok bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if pk := x.pages[pid]; pk != nil {
		return pk.min, pk.max, true
	}
	return 0, 0, false
}

// Remove drops one record id from a key's posting list (physical delete).
// The page's key bounds are never narrowed — the index cannot tell which
// keys remain — but they are forgotten with the page's last record id, so a
// page number that is freed and reused starts from fresh bounds.
func (x *KeyIndex) Remove(key int64, rid page.RecordID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	lst := x.m[key]
	for i, r := range lst {
		if r == rid {
			lst[i] = lst[len(lst)-1]
			lst = lst[:len(lst)-1]
			if pk := x.pages[rid.Page]; pk != nil {
				if pk.n--; pk.n == 0 {
					delete(x.pages, rid.Page)
				}
			}
			break
		}
	}
	if len(lst) == 0 {
		delete(x.m, key)
	} else {
		x.m[key] = lst
	}
}

// DropPage removes every record id that lives on the given page — the
// quarantine step of torn-page repair, where the page's keys cannot be read
// back to Remove them one by one. The page's key bounds go with them, so
// scans keep visiting it until repair refills it. Returns the number of
// entries dropped.
func (x *KeyIndex) DropPage(pid page.ID) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	delete(x.pages, pid)
	dropped := 0
	for key, lst := range x.m {
		kept := lst[:0]
		for _, r := range lst {
			if r.Page == pid {
				dropped++
				continue
			}
			kept = append(kept, r)
		}
		if len(kept) == 0 {
			delete(x.m, key)
		} else {
			x.m[key] = kept
		}
	}
	return dropped
}

// Lookup returns a copy of the record ids stored under key.
func (x *KeyIndex) Lookup(key int64) []page.RecordID {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return append([]page.RecordID(nil), x.m[key]...)
}

// Len returns the number of indexed record ids across all keys.
func (x *KeyIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	n := 0
	for _, lst := range x.m {
		n += len(lst)
	}
	return n
}

// Clear empties the index (recovery from a blank slate).
func (x *KeyIndex) Clear() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.m = map[int64][]page.RecordID{}
	x.pages = map[page.ID]*pageKeys{}
}

// Quantiles returns up to n-1 interior key boundaries that split the
// indexed key population into n roughly equal-count shards. Recovery uses
// them to carve a replica's key range into segments whose recovery states
// advance independently: quantiles of the *local* key distribution give
// balanced copy work per segment, which boundary arithmetic over the range
// endpoints (often ±∞) cannot. Returns nil when the index holds fewer
// distinct keys than shards — callers fall back to one whole-range segment.
func (x *KeyIndex) Quantiles(n int) []int64 {
	if n < 2 {
		return nil
	}
	x.mu.RLock()
	keys := make([]int64, 0, len(x.m))
	for k := range x.m {
		keys = append(keys, k)
	}
	x.mu.RUnlock()
	if len(keys) < n {
		return nil
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	bounds := make([]int64, 0, n-1)
	for i := 1; i < n; i++ {
		b := keys[i*len(keys)/n]
		if len(bounds) > 0 && bounds[len(bounds)-1] == b {
			continue
		}
		bounds = append(bounds, b)
	}
	return bounds
}

// Rebuild rescans the heap file and atomically replaces the index contents.
func (x *KeyIndex) Rebuild(h *HeapFile) error {
	fresh, err := BuildKeyIndex(h)
	if err != nil {
		return err
	}
	x.mu.Lock()
	x.m, x.pages = fresh.m, fresh.pages
	x.mu.Unlock()
	return nil
}
