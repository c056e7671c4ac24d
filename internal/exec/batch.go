package exec

import "harbor/internal/tuple"

// DefaultBatchRows is the target fill of one pipeline batch. It matches the
// wire layer's frame flush target so a full batch becomes one frame.
const DefaultBatchRows = 256

// BatchOperator is the batch-at-a-time face of an operator: NextBatch
// resets b and fills it with up to DefaultBatchRows rows. A batch left
// empty signals end of stream. Next() remains available on every operator
// (the §5.4.2 join path and tests stay tuple-at-a-time).
type BatchOperator interface {
	Operator
	NextBatch(b *tuple.Batch) error
}

// AsBatch returns op itself when it implements BatchOperator natively, or
// wraps it in an adapter that fills batches through Next().
func AsBatch(op Operator) BatchOperator {
	if b, ok := op.(BatchOperator); ok {
		return b
	}
	return &batchAdapter{op}
}

type batchAdapter struct {
	Operator
}

func (a *batchAdapter) NextBatch(b *tuple.Batch) error {
	b.Reset()
	for b.Len() < DefaultBatchRows {
		t, ok, err := a.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		b.Append(t)
	}
	return nil
}

// NextBatch fills the batch page-at-a-time: one latch acquisition yields
// every qualifying row of the page instead of one row per Next() call.
func (s *SeqScan) NextBatch(b *tuple.Batch) error {
	b.Reset()
	for b.Len() < DefaultBatchRows {
		if s.frame == nil {
			if ok, err := s.advancePage(); !ok {
				return err
			}
		}
		for ; s.slot < s.frame.Page.NumSlots() && b.Len() < DefaultBatchRows; s.slot++ {
			t, ok, err := s.slotTuple(s.slot)
			if err != nil {
				return err
			}
			if ok {
				b.Append(t)
			}
		}
		if s.slot >= s.frame.Page.NumSlots() {
			s.releaseFrame()
		}
	}
	return nil
}

// NextBatch filters the child's batches in place; it keeps pulling until a
// batch survives the predicate or the child ends, so an empty batch still
// means end of stream.
func (f *Filter) NextBatch(b *tuple.Batch) error {
	if f.bchild == nil {
		f.bchild = AsBatch(f.Child)
	}
	d := f.Child.Desc()
	for {
		if err := f.bchild.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		rows := b.Rows()
		n := 0
		for i := range rows {
			if f.Pred.Eval(d, rows[i]) {
				rows[n] = rows[i]
				n++
			}
		}
		if n > 0 {
			b.Truncate(n)
			return nil
		}
	}
}

// NextBatch maps a child batch through the projection.
func (p *Project) NextBatch(b *tuple.Batch) error {
	if p.bchild == nil {
		p.bchild = AsBatch(p.Child)
		p.scratch = tuple.NewBatch(DefaultBatchRows)
	}
	if err := p.bchild.NextBatch(p.scratch); err != nil {
		return err
	}
	b.Reset()
	for _, t := range p.scratch.Rows() {
		out := tuple.Tuple{Values: make([]tuple.Value, len(p.Fields))}
		for i, fi := range p.Fields {
			out.Values[i] = t.Values[fi]
		}
		b.Append(out)
	}
	return nil
}

// NextBatch serves the materialised group rows slab-at-a-time.
func (h *HashAgg) NextBatch(b *tuple.Batch) error {
	b.Reset()
	for b.Len() < DefaultBatchRows && h.pos < len(h.results) {
		b.Append(h.results[h.pos])
		h.pos++
	}
	return nil
}

// NextBatch serves the sorted rows slab-at-a-time.
func (s *Sort) NextBatch(b *tuple.Batch) error {
	b.Reset()
	for b.Len() < DefaultBatchRows && s.pos < len(s.rows) {
		b.Append(s.rows[s.pos])
		s.pos++
	}
	return nil
}

// DrainBatches opens op and feeds every non-empty batch to sink.
func DrainBatches(op BatchOperator, sink func(*tuple.Batch) error) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	b := tuple.NewBatch(DefaultBatchRows)
	for {
		if err := op.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		if err := sink(b); err != nil {
			return err
		}
	}
}
