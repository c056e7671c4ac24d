package exec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"harbor/internal/tuple"
)

func TestAggPlanOutDescNames(t *testing.T) {
	desc := testDesc()
	plan := AggPlan{
		GroupField: desc.FieldIndex("v"),
		Aggs: []AggSpec{
			{Fn: Count},
			{Fn: Sum, Field: desc.FieldIndex("id")},
			{Fn: Min, Field: desc.FieldIndex("id")},
			{Fn: Max, Field: desc.FieldIndex("id")},
			{Fn: Avg, Field: desc.FieldIndex("id")},
		},
	}
	want := []string{"v", "count(*)", "sum(id)", "min(id)", "max(id)", "avg(id)"}
	out := plan.OutDesc(desc)
	got := make([]string, len(out.Fields))
	for i, f := range out.Fields {
		got[i] = f.Name
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schema names = %v, want %v", got, want)
	}
}

// refAggregate is the reference the equivalence test checks the
// partial/final split against, sharing no code with GroupTable or AggPlan:
// per-group count/sum/min/max in a map, Avg as one integer division of sum
// by count, groups in ascending key order. (testutil.RefAggregate is the
// same oracle; importing it here would be a cycle.)
func refAggregate(rows []tuple.Tuple, plan AggPlan) []tuple.Tuple {
	type acc struct{ n, sum, min, max int64 }
	groups := map[int64][]acc{}
	for _, r := range rows {
		key := int64(0)
		if plan.GroupField >= 0 {
			key = r.Values[plan.GroupField].I64
		}
		if groups[key] == nil {
			groups[key] = make([]acc, len(plan.Aggs))
		}
		for i, a := range plan.Aggs {
			c, v := &groups[key][i], r.Values[a.Field].I64
			if c.n == 0 || v < c.min {
				c.min = v
			}
			if c.n == 0 || v > c.max {
				c.max = v
			}
			c.n++
			c.sum += v
		}
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]tuple.Tuple, 0, len(keys))
	for _, k := range keys {
		var vals []tuple.Value
		if plan.GroupField >= 0 {
			vals = append(vals, tuple.VInt(k))
		}
		for i, a := range plan.Aggs {
			c := groups[k][i]
			vals = append(vals, tuple.VInt(map[AggFunc]int64{Count: c.n, Sum: c.sum, Min: c.min, Max: c.max, Avg: c.sum / c.n}[a.Fn]))
		}
		out = append(out, tuple.Tuple{Values: vals})
	}
	return out
}

// TestPartialFinalEquivalence shards rows across "sites", aggregates each
// shard into partial states, merges the states in shuffled order, and
// requires the finalised result to be byte-identical to a plain
// single-site reference over all rows — including Avg values whose integer division loses remainders
// that per-site averaging would get wrong.
func TestPartialFinalEquivalence(t *testing.T) {
	desc := testDesc()
	rng := rand.New(rand.NewSource(42))
	var rows []tuple.Tuple
	for id := int64(1); id <= 500; id++ {
		rows = append(rows, mk(id, 3+rng.Int63n(7)))
	}
	for _, group := range []int{desc.FieldIndex("v"), -1} {
		plan := AggPlan{GroupField: group, Aggs: []AggSpec{
			{Fn: Count},
			{Fn: Sum, Field: desc.FieldIndex("id")},
			{Fn: Min, Field: desc.FieldIndex("id")},
			{Fn: Max, Field: desc.FieldIndex("id")},
			{Fn: Avg, Field: desc.FieldIndex("id")},
		}}

		want := refAggregate(rows, plan)

		// Distributed: 4 shards, partial states merged in shuffled order.
		shards := make([]*GroupTable, 4)
		for i := range shards {
			shards[i] = NewGroupTable(group, plan.Partials())
		}
		for i, r := range rows {
			shards[i%len(shards)].Add(r)
		}
		final := NewGroupTable(group, plan.Partials())
		order := rng.Perm(len(shards))
		for _, i := range order {
			if err := final.MergeTable(shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		got := plan.Rows(final)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("group=%d: merged partials diverge:\n got %v\nwant %v", group, got, want)
		}
	}
}
