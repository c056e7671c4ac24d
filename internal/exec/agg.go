package exec

import (
	"fmt"
	"math"
	"sort"

	"harbor/internal/tuple"
)

// This file holds the distributed aggregation algebra: every aggregate in
// AggFunc splits into a *partial* state that each site computes over its
// local rows and a *final* step that combines partial states at the
// coordinator. Count and Sum merge by addition, Min and Max by taking the
// extremum, and Avg decomposes into a (Sum, Count) pair finalised with one
// integer division — so merging partial states from any number of sites,
// in any order, yields exactly the single-site answer.

// AggName renders the output column name for one aggregate over the input
// schema, e.g. "sum(v)", "count(*)".
func AggName(in *tuple.Desc, a AggSpec) string {
	var fn string
	switch a.Fn {
	case Count:
		return "count(*)"
	case Sum:
		fn = "sum"
	case Min:
		fn = "min"
	case Max:
		fn = "max"
	case Avg:
		fn = "avg"
	default:
		fn = fmt.Sprintf("agg%d", a.Fn)
	}
	field := fmt.Sprintf("f%d", a.Field)
	if in != nil && a.Field >= 0 && a.Field < len(in.Fields) {
		field = in.Fields[a.Field].Name
	}
	return fn + "(" + field + ")"
}

// AggPlan is a grouped aggregation: group by one Int64 field (-1 collapses
// everything into a single global group) and compute one output column per
// AggSpec. The same plan describes both halves of the distributed split.
type AggPlan struct {
	GroupField int
	Aggs       []AggSpec
}

// Partials returns the partial-state columns a site ships per group.
// Count, Sum, Min and Max are their own partial; Avg decomposes into a
// Sum column followed by a Count column. Finalize walks the same layout.
func (p AggPlan) Partials() []AggSpec {
	out := make([]AggSpec, 0, len(p.Aggs)+1)
	for _, a := range p.Aggs {
		if a.Fn == Avg {
			out = append(out, AggSpec{Fn: Sum, Field: a.Field}, AggSpec{Fn: Count, Field: a.Field})
			continue
		}
		out = append(out, a)
	}
	return out
}

// OutDesc is the final output schema: the group column (when grouping)
// followed by one Int64 column per aggregate, named sum(v)/count(*) style.
func (p AggPlan) OutDesc(in *tuple.Desc) *tuple.Desc {
	var fields []tuple.FieldDef
	if p.GroupField >= 0 {
		fields = append(fields, in.Fields[p.GroupField])
	}
	for _, a := range p.Aggs {
		fields = append(fields, tuple.FieldDef{Name: AggName(in, a), Type: tuple.Int64})
	}
	return &tuple.Desc{Fields: fields}
}

// PartialDesc is the schema of one partial group-state row as shipped on
// the wire: the group key (when grouping) followed by one Int64 column per
// partial spec. Every column is Int64, so the fixed-width batch codec
// applies unchanged.
func (p AggPlan) PartialDesc(in *tuple.Desc) *tuple.Desc {
	var fields []tuple.FieldDef
	if p.GroupField >= 0 {
		fields = append(fields, tuple.FieldDef{Name: "group", Type: tuple.Int64})
	}
	for _, a := range p.Partials() {
		fields = append(fields, tuple.FieldDef{Name: AggName(in, a), Type: tuple.Int64})
	}
	return &tuple.Desc{Fields: fields}
}

// Finalize appends the final output columns computed from one merged
// partial state (laid out per Partials) to dst.
func (p AggPlan) Finalize(state []int64, dst []tuple.Value) []tuple.Value {
	j := 0
	for _, a := range p.Aggs {
		if a.Fn == Avg {
			sum, cnt := state[j], state[j+1]
			j += 2
			var v int64
			if cnt > 0 {
				v = sum / cnt
			}
			dst = append(dst, tuple.VInt(v))
			continue
		}
		dst = append(dst, tuple.VInt(state[j]))
		j++
	}
	return dst
}

// Rows finalises every group of gt (accumulated under this plan's partial
// layout) in ascending group-key order — the deterministic output order
// of every aggregate answer the coordinator returns.
func (p AggPlan) Rows(gt *GroupTable) []tuple.Tuple {
	keys := gt.SortedKeys()
	out := make([]tuple.Tuple, 0, len(keys))
	width := len(p.Aggs)
	if p.GroupField >= 0 {
		width++
	}
	for _, key := range keys {
		t := tuple.Tuple{Values: make([]tuple.Value, 0, width)}
		if p.GroupField >= 0 {
			t.Values = append(t.Values, tuple.VInt(key))
		}
		t.Values = p.Finalize(gt.State(key), t.Values)
		out = append(out, t)
	}
	return out
}

// GroupTable accumulates per-group partial aggregate states in one flat
// int64 slab. Group lookup is a single map probe into an index; the states
// themselves live contiguously, so feeding a tuple allocates nothing once
// the group exists. The same table accepts raw input rows (Add) and
// already-aggregated partial states (Merge), which is what makes the
// coordinator's merge step reuse the worker's code path.
type GroupTable struct {
	group int // input field holding the group key, -1 for one global group
	specs []AggSpec

	idx   map[int64]int // group key -> index into keys
	keys  []int64
	state []int64 // len(keys) * len(specs), row-major per group
}

// NewGroupTable returns an empty table accumulating the given partial
// columns, grouped by input field group (-1 = single global group).
func NewGroupTable(group int, partial []AggSpec) *GroupTable {
	return &GroupTable{group: group, specs: partial, idx: make(map[int64]int)}
}

// Reset empties the table, keeping allocations.
func (g *GroupTable) Reset() {
	for k := range g.idx {
		delete(g.idx, k)
	}
	g.keys = g.keys[:0]
	g.state = g.state[:0]
}

// Groups returns the number of distinct groups seen.
func (g *GroupTable) Groups() int { return len(g.keys) }

// slot returns the base offset of key's state, creating and initialising
// the group on first sight: Count/Sum start at 0, Min at +inf, Max at -inf
// so every merge operator has its identity element.
func (g *GroupTable) slot(key int64) int {
	if i, ok := g.idx[key]; ok {
		return i * len(g.specs)
	}
	i := len(g.keys)
	g.idx[key] = i
	g.keys = append(g.keys, key)
	base := len(g.state)
	for _, a := range g.specs {
		switch a.Fn {
		case Min:
			g.state = append(g.state, math.MaxInt64)
		case Max:
			g.state = append(g.state, math.MinInt64)
		default:
			g.state = append(g.state, 0)
		}
	}
	return base
}

// Add folds one raw input row into its group's partial state.
func (g *GroupTable) Add(t tuple.Tuple) {
	key := int64(0)
	if g.group >= 0 {
		key = t.Values[g.group].I64
	}
	base := g.slot(key)
	for i, a := range g.specs {
		switch a.Fn {
		case Count:
			g.state[base+i]++
		case Sum:
			g.state[base+i] += t.Values[a.Field].I64
		case Min:
			if v := t.Values[a.Field].I64; v < g.state[base+i] {
				g.state[base+i] = v
			}
		case Max:
			if v := t.Values[a.Field].I64; v > g.state[base+i] {
				g.state[base+i] = v
			}
		}
	}
}

// AddBatch folds a batch of raw input rows.
func (g *GroupTable) AddBatch(b *tuple.Batch) {
	for _, t := range b.Rows() {
		g.Add(t)
	}
}

// Merge combines one partial group state (key plus one value per partial
// column) into the table. Merging is associative and commutative, so
// states may arrive from any number of sites in any order.
func (g *GroupTable) Merge(key int64, vals []int64) error {
	if len(vals) != len(g.specs) {
		return fmt.Errorf("exec: partial state has %d columns, want %d", len(vals), len(g.specs))
	}
	base := g.slot(key)
	for i, a := range g.specs {
		switch a.Fn {
		case Count, Sum:
			g.state[base+i] += vals[i]
		case Min:
			if vals[i] < g.state[base+i] {
				g.state[base+i] = vals[i]
			}
		case Max:
			if vals[i] > g.state[base+i] {
				g.state[base+i] = vals[i]
			}
		}
	}
	return nil
}

// MergeTable folds every group of o (built with the same specs) into g.
func (g *GroupTable) MergeTable(o *GroupTable) error {
	for _, key := range o.keys {
		if err := g.Merge(key, o.State(key)); err != nil {
			return err
		}
	}
	return nil
}

// State returns key's partial state slice (one value per partial column);
// valid until the next Add/Merge that creates a group.
func (g *GroupTable) State(key int64) []int64 {
	i := g.idx[key]
	return g.state[i*len(g.specs) : (i+1)*len(g.specs)]
}

// SortedKeys returns the group keys in ascending order.
func (g *GroupTable) SortedKeys() []int64 {
	out := make([]int64, len(g.keys))
	copy(out, g.keys)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Keys returns the group keys in insertion order; valid until the next
// Add/Merge that creates a group.
func (g *GroupTable) Keys() []int64 { return g.keys }
