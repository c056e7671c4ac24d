// Distributed aggregation pushdown: instead of shipping every qualifying
// row through ScanStream and aggregating locally, Aggregate sends each read
// slot's site a scan request carrying the aggregate spec. The site folds
// its rows into per-group partial states (exec.GroupTable) and streams back
// O(groups) MsgAggBatch frames; the coordinator merges the states — an
// associative, commutative fold — and finalises in ascending group-key
// order, so the answer is byte-identical to aggregating the merged scan on
// one site, no matter how slots, sites, or failovers interleaved.
//
// Failover re-merge rule: Aggregate reads through the same slot driver as
// ScanStream, but a slot folds its frames into a slot-local table and
// emits that table only after a clean end of stream. Partial states,
// unlike key-ordered rows, have no resume point — a group's state may be
// split across the delivered and undelivered suffix — so a slot whose site
// dies has emitted nothing, and the driver re-reads its whole key range
// from the survivors. Every key range is therefore merged exactly once,
// from exactly one clean stream: no group is double-counted or lost.
package coord

import (
	"fmt"

	"harbor/internal/exec"
	"harbor/internal/tuple"
	"harbor/internal/wire"
)

// Aggregate runs a grouped aggregate query over one logical table and
// returns the finalised rows in ascending group-key order (the group
// column first when plan.GroupField >= 0, then one Int64 column per
// aggregate). Options behave as in Scan.
func (co *Coordinator) Aggregate(table int32, opt QueryOptions, plan exec.AggPlan) ([]tuple.Tuple, error) {
	if len(plan.Aggs) == 0 {
		return nil, fmt.Errorf("coord: aggregate with no aggregate columns")
	}
	spec, ok := co.cfg.Catalog.Table(table)
	if !ok {
		return nil, fmt.Errorf("coord: unknown table %d", table)
	}
	if plan.GroupField >= len(spec.Desc.Fields) {
		return nil, fmt.Errorf("coord: aggregate group field %d out of range", plan.GroupField)
	}
	for _, a := range plan.Aggs {
		if a.Fn != exec.Count && (a.Field < 0 || a.Field >= len(spec.Desc.Fields)) {
			return nil, fmt.Errorf("coord: aggregate field %d out of range", a.Field)
		}
	}
	co.aggQueries.Inc()
	partial := plan.Partials()
	final := exec.NewGroupTable(plan.GroupField, partial)

	slots, q, err := co.planRead(table, opt)
	if err != nil {
		return nil, err
	}
	defer q.release()
	aq := &aggQuery{scanQuery: q, plan: plan, partial: partial, aggs: make([]wire.AggCol, len(partial))}
	for i, a := range partial {
		aq.aggs[i] = wire.AggCol{Fn: uint8(a.Fn), Field: int32(a.Field)}
	}
	if err := aq.run(slots, final); err != nil {
		return nil, err
	}
	return plan.Rows(final), nil
}

// aggQuery carries a pushed-down aggregate's invariant parameters on top
// of the shared read-plan state.
type aggQuery struct {
	*scanQuery
	plan    exec.AggPlan
	partial []exec.AggSpec
	aggs    []wire.AggCol // partial, as the request's agg spec
}

// run merges every slot's partial states into final. Each slot emits its
// slot-local table once, after a clean end of stream, so a failed slot is
// re-read whole (see the failover re-merge rule above). Merging is
// associative and commutative; determinism comes from the finalisation
// sort, not arrival order.
func (aq *aggQuery) run(slots []scanSlot, final *exec.GroupTable) error {
	d := &slotDriver[*exec.GroupTable]{q: aq.scanQuery, sink: final.MergeTable, failovers: aq.co.aggFailovers,
		read: func(slot scanSlot, emit func(*exec.GroupTable) bool) error {
			st := exec.NewGroupTable(aq.plan.GroupField, aq.partial)
			req := aq.slotRequest(slot)
			req.AggGroup, req.Aggs = int32(aq.plan.GroupField), aq.aggs
			err := aq.readSlot(slot, req, wire.MsgAggBatch, func(resp *wire.Msg) (bool, error) {
				return true, aq.mergeFrame(st, resp)
			})
			if err == nil {
				emit(st)
			}
			return err
		},
	}
	return d.readSlots(slots, 0)
}

// mergeFrame folds one MsgAggBatch frame of partial states into st.
func (aq *aggQuery) mergeFrame(st *exec.GroupTable, resp *wire.Msg) error {
	ncols := len(aq.partial)
	grouped := aq.plan.GroupField >= 0
	if grouped {
		ncols++
	}
	n, err := wire.CheckBatch(resp, wire.AggStride(ncols))
	if err != nil {
		return err
	}
	aq.co.aggRowsShipped.Add(int64(n))
	aq.co.aggFrames.Inc()
	vals := make([]int64, 0, ncols)
	for i := 0; i < n; i++ {
		vals = wire.AggRow(resp.Raw, i, ncols, vals[:0])
		key, state := int64(0), vals
		if grouped {
			key, state = vals[0], vals[1:]
		}
		if err := st.Merge(key, state); err != nil {
			return err
		}
	}
	return nil
}
