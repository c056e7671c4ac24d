package main

import (
	"fmt"
	"sort"

	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/tuple"
)

// rowVersion is one stored tuple version as the replica comparison sees it.
type rowVersion struct {
	key, ins, del int64
	hash          uint64
	f0            int64
}

// dumpReplica reads every version of table's rows in rng that worker i
// stores, deleted ones included, as of asOf (SEE DELETED HISTORICAL, §5.3:
// later insertions hidden, later deletions masked), ordered by (key, insTS).
func dumpReplica(cl *cluster, i int, table int32, desc *tuple.Desc, asOf tuple.Timestamp, rng expr.KeyRange) ([]rowVersion, error) {
	sc, err := dialSite(cl.workers[i].Addr())
	if err != nil {
		return nil, err
	}
	defer sc.close()
	var out []rowVersion
	var derr error
	f0 := desc.FieldIndex("f0")
	b := tuple.NewBatch(256)
	_, err = sc.scan(table, exec.SeeDeleted, asOf, rng, desc, func(raw []byte) {
		b.Reset()
		if err := b.DecodeBatch(desc, raw); err != nil {
			derr = err
			return
		}
		for _, t := range b.Rows() {
			out = append(out, rowVersion{key: t.Key(desc), ins: t.InsTS(), del: t.DelTS(),
				hash: rowHash(desc, t), f0: t.Values[f0].I64})
		}
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, fmt.Errorf("dumping table %d on worker %d: %w", table, i, err)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].key != out[b].key {
			return out[a].key < out[b].key
		}
		return out[a].ins < out[b].ins
	})
	return out, nil
}

// sameVersions fails on the first position where two replica dumps differ.
func sameVersions(what string, a, b []rowVersion) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d versions against %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: version %d differs: %+v against %+v", what, i, a[i], b[i])
		}
	}
	return nil
}

// liveTotals returns the count and f0 sum of the versions live at the dump
// time (not deleted).
func liveTotals(vs []rowVersion) (count, sum int64) {
	for _, v := range vs {
		if v.del == tuple.NotDeleted {
			count++
			sum += v.f0
		}
	}
	return count, sum
}

// checkReplicas dumps table on every listed worker, requires the dumps to
// be identical, and requires the live rows to match the generator's model.
func checkReplicas(cl *cluster, table int32, desc *tuple.Desc, workers []int, wantCount, wantSum int64) error {
	asOf := cl.coord.Authority.HWM()
	var first []rowVersion
	for n, i := range workers {
		vs, err := dumpReplica(cl, i, table, desc, asOf, expr.FullKeyRange())
		if err != nil {
			return err
		}
		if n == 0 {
			first = vs
			count, sum := liveTotals(vs)
			if count != wantCount || sum != wantSum {
				return fmt.Errorf("table %d on worker %d: %d live rows summing %d, the generator says %d summing %d",
					table, i, count, sum, wantCount, wantSum)
			}
			continue
		}
		if err := sameVersions(fmt.Sprintf("table %d, workers %d and %d", table, workers[0], i), first, vs); err != nil {
			return err
		}
	}
	return nil
}
