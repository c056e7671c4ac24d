package exec

import "harbor/internal/tuple"

// DefaultBatchRows is the target fill of one pipeline batch. It matches the
// wire layer's frame flush target so a full batch becomes one frame.
const DefaultBatchRows = 256

// NextBatch resets b and fills it page-at-a-time with up to
// DefaultBatchRows qualifying rows: one latch acquisition yields every
// qualifying row of the page. A batch left empty signals end of scan.
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

// DrainBatches opens s and feeds every non-empty batch to sink. The batch
// is reused: sink must not keep it past the call.
func DrainBatches(s *SeqScan, sink func(*tuple.Batch) error) error {
	if err := s.Open(); err != nil {
		return err
	}
	defer s.Close()
	b := tuple.NewBatch(DefaultBatchRows)
	for {
		if err := s.NextBatch(b); err != nil {
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

// Drain runs s to completion and returns every row. Each row is freshly
// decoded from its page, so the rows outlive the reused batch uncloned.
func Drain(s *SeqScan) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	if err := DrainBatches(s, func(b *tuple.Batch) error {
		out = append(out, b.Rows()...)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
