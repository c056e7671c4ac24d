package testutil

import (
	"sort"

	"harbor/internal/exec"
	"harbor/internal/tuple"
)

// RefAggregate is an aggregate oracle that shares no code with
// exec.GroupTable or exec.AggPlan: a plain per-group map of
// count/sum/min/max, Avg as one integer division of sum by count, and the
// rows ordered by group key — the shape AggPlan.Rows and the coordinator
// merge produce.
func RefAggregate(rows []tuple.Tuple, plan exec.AggPlan) []tuple.Tuple {
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
			v := map[exec.AggFunc]int64{exec.Count: c.n, exec.Sum: c.sum, exec.Min: c.min, exec.Max: c.max, exec.Avg: c.sum / c.n}[a.Fn]
			vals = append(vals, tuple.VInt(v))
		}
		out = append(out, tuple.Tuple{Values: vals})
	}
	return out
}
