package coord_test

import (
	"testing"
	"time"

	"harbor/internal/coord"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/testutil"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// aggPlans returns the aggregate shapes the equivalence tests sweep: a
// grouped all-functions plan (Avg included, so integer-division remainders
// are on the line), a group-by-key plan, and a global (GroupField = -1)
// plan.
func aggPlans() map[string]exec.AggPlan {
	desc := testDesc()
	idf, vf := desc.FieldIndex("id"), desc.FieldIndex("v")
	all := []exec.AggSpec{
		{Fn: exec.Count},
		{Fn: exec.Sum, Field: idf},
		{Fn: exec.Min, Field: idf},
		{Fn: exec.Max, Field: idf},
		{Fn: exec.Avg, Field: idf},
	}
	return map[string]exec.AggPlan{
		"group-by-v":  {GroupField: vf, Aggs: all},
		"group-by-id": {GroupField: idf, Aggs: []exec.AggSpec{{Fn: exec.Count}, {Fn: exec.Sum, Field: vf}, {Fn: exec.Avg, Field: vf}}},
		"global":      {GroupField: -1, Aggs: all},
	}
}

// TestAggregateEquivalence: pushed-down aggregation must be byte-identical
// to a reference aggregate over the merged scan across replicated/
// partitioned × current/historical × predicate/no-predicate ×
// grouped/global shapes. It also pins the pushdown's traffic: an aggregate
// ships no rows, and at most one partial state per result group per slot.
func TestAggregateEquivalence(t *testing.T) {
	cl := newCluster(t, txn.OptThreePC, worker.HARBOR, 4)
	if err := cl.CreateRangePartitionedTable(2, testDesc(), 4, 250, 500, 750); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	asOf1 := seedMixed(t, cl, 1, 42, n)
	asOf2 := seedMixed(t, cl, 2, 43, n)

	desc := testDesc()
	pred := expr.True.And(expr.Term{Field: desc.FieldIndex("v"), Op: expr.GE, Value: tuple.VInt(200)})
	nothing := expr.True.And(expr.Term{Field: desc.FieldIndex("v"), Op: expr.GT, Value: tuple.VInt(1 << 40)})
	// Key-range predicates prune the plan to the owning partitions and the
	// scan to the owning pages; the answer must not notice.
	onePartition := expr.KeyRange{Lo: 300, Hi: 420}.Pred(desc)
	acrossSeams := expr.KeyRange{Lo: 240, Hi: 760}.Pred(desc).And(pred.Terms...)
	oneKey := expr.True.And(expr.Term{Field: desc.Key, Op: expr.EQ, Value: tuple.VInt(501)})
	cases := []struct {
		label string
		table int32
		opt   coord.QueryOptions
	}{
		{"replicated/current", 1, coord.QueryOptions{}},
		{"replicated/historical", 1, coord.QueryOptions{Historical: true, AsOf: asOf1}},
		{"replicated/predicate", 1, coord.QueryOptions{Pred: pred}},
		{"partitioned/current", 2, coord.QueryOptions{}},
		{"partitioned/historical", 2, coord.QueryOptions{Historical: true, AsOf: asOf2}},
		{"partitioned/predicate", 2, coord.QueryOptions{Pred: pred}},
		{"partitioned/empty", 2, coord.QueryOptions{Pred: nothing}},
		{"replicated/key-range", 1, coord.QueryOptions{Pred: onePartition}},
		{"partitioned/key-range", 2, coord.QueryOptions{Pred: onePartition}},
		{"partitioned/key-range-across-seams", 2, coord.QueryOptions{Pred: acrossSeams}},
		{"partitioned/key-range-historical", 2, coord.QueryOptions{Historical: true, AsOf: asOf2, Pred: acrossSeams}},
		{"partitioned/one-key", 2, coord.QueryOptions{Pred: oneKey}},
	}
	reg := cl.Coord.Obs()
	scanRows, shipped := reg.Counter("coord.scan.rows"), reg.Counter("coord.agg.rows_shipped")
	for _, tc := range cases {
		// Upper bound on the read plan's slots: the table's replica count
		// when partitioned, one full replica otherwise.
		slots := int64(1)
		if tc.table == 2 {
			slots = 4
		}
		rows, err := cl.Coord.Scan(tc.table, tc.opt)
		if err != nil {
			t.Fatalf("%s: scan: %v", tc.label, err)
		}
		if len(rows) == 0 && tc.label != "partitioned/empty" {
			t.Fatalf("%s: scan returned nothing; case is vacuous", tc.label)
		}
		for name, plan := range aggPlans() {
			label := tc.label + "/" + name
			want := testutil.RefAggregate(rows, plan)
			rows0, shipped0 := scanRows.Load(), shipped.Load()
			got, err := cl.Coord.Aggregate(tc.table, tc.opt, plan)
			if err != nil {
				t.Fatalf("%s: pushdown aggregate: %v", label, err)
			}
			requireSameRows(t, label+"/pushdown", got, want)
			if d := scanRows.Load() - rows0; d != 0 {
				t.Fatalf("%s: aggregate shipped %d rows through the scan path", label, d)
			}
			if d, max := shipped.Load()-shipped0, int64(len(want))*slots; d > max {
				t.Fatalf("%s: aggregate shipped %d partial states, want at most %d (%d groups x %d slots)",
					label, d, max, len(want), slots)
			}
			if tc.label == "partitioned/empty" && len(got) != 0 {
				t.Fatalf("%s: empty input produced %d groups", label, len(got))
			}
		}
	}
}

// TestAggregateFailoverEquivalence: killing the serving site while a
// pushed-down aggregate is in flight must not lose or double-count any
// group — the failed slot's buffered partial states are discarded and its
// whole key range is refetched from a buddy. The result is compared
// against an identically-seeded healthy cluster; a second aggregate
// against the degraded cluster covers the site-down-at-launch path.
func TestAggregateFailoverEquivalence(t *testing.T) {
	const n, seed = 2000, 77
	killed := newCluster(t, txn.OptThreePC, worker.HARBOR, 3)
	healthy := newCluster(t, txn.OptThreePC, worker.HARBOR, 3)
	seedMixed(t, killed, 1, seed, n)
	seedMixed(t, healthy, 1, seed, n)

	desc := testDesc()
	plan := exec.AggPlan{GroupField: desc.FieldIndex("v"), Aggs: []exec.AggSpec{
		{Fn: exec.Count},
		{Fn: exec.Sum, Field: desc.FieldIndex("id")},
		{Fn: exec.Avg, Field: desc.FieldIndex("id")},
	}}
	want, err := healthy.Coord.Aggregate(1, coord.QueryOptions{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("healthy aggregate returned nothing; test is vacuous")
	}

	// The replicated table reads from the lowest live site: worker 0. Hold
	// its dispatch long enough that the crash lands while the aggregate's
	// slot exchange is in flight, forcing the mid-stream failover path.
	killed.Workers[0].SetSimMsgDelay(100 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(30 * time.Millisecond)
		killed.Workers[0].Crash()
	}()
	got, err := killed.Coord.Aggregate(1, coord.QueryOptions{}, plan)
	<-done
	if err != nil {
		t.Fatalf("aggregate with mid-flight crash: %v", err)
	}
	requireSameRows(t, "mid-flight kill", got, want)

	// Worker 0 is down (and by now marked down): the next aggregate plans
	// onto the survivors from the start.
	after, err := killed.Coord.Aggregate(1, coord.QueryOptions{}, plan)
	if err != nil {
		t.Fatalf("aggregate after crash: %v", err)
	}
	requireSameRows(t, "post-kill aggregate", after, want)
}
