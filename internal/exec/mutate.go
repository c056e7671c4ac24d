package exec

import (
	"harbor/internal/tuple"
	"harbor/internal/version"
)

// DeleteByKey versionally deletes the live version of a key via the primary
// index, returning whether a version was found.
func DeleteByKey(store *version.Store, tid version.TxnID, table int32, key int64) (bool, error) {
	_, rids, err := IndexLookup(store, table, key, Current, 0)
	if err != nil {
		return false, err
	}
	if len(rids) == 0 {
		return false, nil
	}
	if _, err := store.DeleteTuple(tid, table, rids[0]); err != nil {
		return false, err
	}
	return true, nil
}

// UpdateByKey rewrites the live version of a key via the primary index.
func UpdateByKey(store *version.Store, tid version.TxnID, table int32, key int64, set func(tuple.Tuple) tuple.Tuple) (bool, error) {
	ts, rids, err := IndexLookup(store, table, key, Current, 0)
	if err != nil {
		return false, err
	}
	if len(rids) == 0 {
		return false, nil
	}
	if _, err := store.UpdateTuple(tid, table, rids[0], set(ts[0].Clone())); err != nil {
		return false, err
	}
	return true, nil
}
