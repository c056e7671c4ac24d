package coord_test

import (
	"math"
	"strconv"
	"testing"

	"harbor/internal/coord"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// tableReads returns, per worker, how many scan requests for table it has
// been sent.
func tableReads(cl *testutil.Cluster, table int32) []int64 {
	out := make([]int64, len(cl.Workers))
	for i, w := range cl.Workers {
		out[i] = w.Obs().Counter(obs.Name("worker.table.reads", "table", strconv.Itoa(int(table)))).Load()
	}
	return out
}

func keyPred(terms ...expr.Term) expr.Pred { return expr.True.And(terms...) }

func keyIs(op expr.Op, v int64) expr.Term {
	return expr.Term{Field: testDesc().Key, Op: op, Value: tuple.VInt(v)}
}

// TestKeyPredicatePlansOnlyOwningSites: a key predicate narrows the read
// plan to the partitions that can hold a match — the other sites receive
// nothing — and the rows are those of the full scan, filtered.
func TestKeyPredicatePlansOnlyOwningSites(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 4)
	if err := cl.CreateRangePartitionedTable(2, testDesc(), 4, 0, 500, 750); err != nil {
		t.Fatal(err)
	}
	tx := cl.Coord.Begin()
	for k := int64(-200); k < 1000; k += 3 {
		if err := tx.Insert(2, mk(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	full, err := cl.Coord.Scan(2, coord.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned := cl.Coord.Obs().Counter("coord.scan.slots_pruned")
	cases := []struct {
		label string
		pred  expr.Pred
		sites []int // workers that must be contacted, all others must not
	}{
		{"inside one partition", keyPred(keyIs(expr.GE, 510), keyIs(expr.LT, 600)), []int{2}},
		{"one key", keyPred(keyIs(expr.EQ, 751)), []int{3}},
		{"across one seam", keyPred(keyIs(expr.GE, 490), keyIs(expr.LE, 520)), []int{1, 2}},
		{"unbounded above", keyPred(keyIs(expr.GT, 700)), []int{2, 3}},
		{"unbounded below", keyPred(keyIs(expr.LT, -100)), []int{0}},
		// Ranges that end or start at key 0: their declared KeyLo/KeyHi must
		// reach the worker as they are, never as "unset, so everything".
		{"up to zero", keyPred(keyIs(expr.GE, -50), keyIs(expr.LT, 0)), []int{0}},
		{"from zero", keyPred(keyIs(expr.GE, 0), keyIs(expr.LT, 1)), []int{1}},
		{"min key", keyPred(keyIs(expr.LE, math.MinInt64)), []int{0}},
		{"max key", keyPred(keyIs(expr.GE, math.MaxInt64)), []int{3}},
	}
	for _, tc := range cases {
		before, prunedBefore := tableReads(cl, 2), pruned.Load()
		got, err := cl.Coord.Scan(2, coord.QueryOptions{Pred: tc.pred})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		var want []tuple.Tuple
		for _, r := range full {
			if tc.pred.Eval(testDesc(), r) {
				want = append(want, r)
			}
		}
		requireSameRows(t, tc.label, got, want)
		after := tableReads(cl, 2)
		contacted := map[int]bool{}
		for _, i := range tc.sites {
			contacted[i] = true
		}
		for i := range after {
			if sent := after[i] - before[i]; (sent == 1) != contacted[i] {
				t.Fatalf("%s: worker %d received %d scan requests, planned=%v", tc.label, i, sent, contacted[i])
			}
		}
		if got, want := pruned.Load()-prunedBefore, int64(4-len(tc.sites)); got != want {
			t.Fatalf("%s: coord.scan.slots_pruned rose by %d, want %d", tc.label, got, want)
		}
	}
}

// TestContradictoryKeyPredicatesPlanNothing: a key predicate no key can
// satisfy used to fan out to every site and filter every row; it must plan
// zero slots — no message leaves the coordinator — for scans and aggregates
// alike, on replicated and partitioned tables.
func TestContradictoryKeyPredicatesPlanNothing(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 4)
	if err := cl.CreateRangePartitionedTable(2, testDesc(), 4, 0, 500, 750); err != nil {
		t.Fatal(err)
	}
	seedMixed(t, cl, 1, 5, 200)
	seedMixed(t, cl, 2, 6, 200)
	plan := exec.AggPlan{GroupField: testDesc().FieldIndex("v"), Aggs: []exec.AggSpec{{Fn: exec.Count}}}
	msgs := cl.Coord.Obs().Counter("coord.msgs_sent")
	for label, pred := range map[string]expr.Pred{
		"inverted bounds":  keyPred(keyIs(expr.GE, 10), keyIs(expr.LT, 5)),
		"above max":        keyPred(keyIs(expr.GT, math.MaxInt64)),
		"below min":        keyPred(keyIs(expr.LT, math.MinInt64)),
		"two keys at once": keyPred(keyIs(expr.EQ, 3), keyIs(expr.EQ, 4)),
		"zero width at 0":  keyPred(keyIs(expr.GE, 0), keyIs(expr.LT, 0)),
	} {
		for _, table := range []int32{1, 2} {
			for _, historical := range []bool{false, true} {
				opt := coord.QueryOptions{Pred: pred, Historical: historical}
				before, sent := tableReads(cl, table), msgs.Load()
				rows, err := cl.Coord.Scan(table, opt)
				if err != nil || len(rows) != 0 {
					t.Fatalf("%s table %d: scan returned %d rows, %v", label, table, len(rows), err)
				}
				groups, err := cl.Coord.Aggregate(table, opt, plan)
				if err != nil || len(groups) != 0 {
					t.Fatalf("%s table %d: aggregate returned %d groups, %v", label, table, len(groups), err)
				}
				if d := msgs.Load() - sent; d != 0 {
					t.Fatalf("%s table %d: %d messages sent for a predicate nothing satisfies", label, table, d)
				}
				for i, n := range tableReads(cl, table) {
					if n != before[i] {
						t.Fatalf("%s table %d: worker %d was asked to scan", label, table, i)
					}
				}
			}
		}
	}
}
