// Distributed aggregation pushdown: instead of shipping every qualifying
// row through ScanStream and aggregating locally, Aggregate sends each read
// slot's site a scan request carrying the aggregate spec. The site folds
// its rows into per-group partial states (exec.GroupTable) and streams back
// O(groups) MsgAggBatch frames; the coordinator merges the states — an
// associative, commutative fold — and finalises in ascending group-key
// order, so the answer is byte-identical to aggregating the merged scan on
// one site, no matter how slots, sites, or failovers interleaved.
//
// Failover re-merge rule: a slot's partial states are buffered in a
// slot-local table and merged into the query result only when that slot's
// stream ends cleanly. If the site dies mid-stream the slot-local table is
// discarded — partial states, unlike key-ordered rows, have no resume
// point, since a group's state may be split across the delivered and
// undelivered suffix — and a coverage plan from the survivors re-reads the
// slot's whole key range. Discard-and-refetch per slot means a group is
// never double-counted and never lost: every key range is merged exactly
// once, from exactly one clean stream.
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
// aggregate). Options behave as in Scan; NoPushdown ships rows instead of
// partial states and aggregates at the coordinator (the ablation path —
// identical results, O(rows) wire traffic).
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

	if opt.NoPushdown {
		// Ablation: every row travels; the coordinator runs the same
		// partial+final algebra over the merged scan.
		err := co.ScanStream(table, opt, func(rows []tuple.Tuple) error {
			for _, t := range rows {
				final.Add(t)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return plan.Rows(final), nil
	}

	slots, q, err := co.planRead(table, opt)
	if err != nil {
		return nil, err
	}
	defer q.release()
	aq := &aggQuery{scanQuery: q, plan: plan, partial: partial, aggs: make([]wire.AggCol, len(partial))}
	for i, a := range partial {
		aq.aggs[i] = wire.AggCol{Fn: uint8(a.Fn), Field: int32(a.Field)}
	}
	if err := aq.run(slots, final, 0); err != nil {
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

// run fans the slots out concurrently (bounded by the fan-out limit),
// merging each slot's partial states into final as the slot completes.
// Merging is associative and commutative, so completion order is free;
// determinism comes from the finalisation sort, not arrival order. A slot
// whose site dies is replanned over the survivors for its whole key range
// (see the failover re-merge rule above); depth bounds cascading failures.
func (aq *aggQuery) run(slots []scanSlot, final *exec.GroupTable, depth int) error {
	if len(slots) == 0 {
		return nil
	}
	co := aq.co
	type slotOut struct {
		st  *exec.GroupTable
		err error
	}
	results := fanEach(co.fanoutLimit(), slots, func(_ int, slot scanSlot) slotOut {
		// Slot-local states: merged below only if the stream ended cleanly.
		st := exec.NewGroupTable(aq.plan.GroupField, aq.partial)
		req := aq.slotRequest(slot)
		req.AggGroup, req.Aggs = int32(aq.plan.GroupField), aq.aggs
		err := aq.readSlot(slot, req, wire.MsgAggBatch, func(resp *wire.Msg) (bool, error) {
			return true, aq.mergeFrame(st, resp)
		})
		return slotOut{st, err}
	})
	for i, r := range results {
		if r.err == nil {
			// Clean end of stream: the slot's buffered states join the
			// result exactly once.
			if err := final.MergeTable(r.st); err != nil {
				return err
			}
			continue
		}
		if depth >= 2 {
			return r.err
		}
		// Discard-and-refetch: nothing of this slot was merged, so the
		// replan re-reads its entire key range from the survivors.
		co.aggFailovers.Inc()
		sub, perr := aq.replan(slots[i], slots[i].rng)
		if perr != nil {
			return r.err // no surviving coverage: report the read error
		}
		if err := aq.run(sub, final, depth+1); err != nil {
			return err
		}
	}
	return nil
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
