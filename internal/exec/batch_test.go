package exec

import (
	"reflect"
	"testing"

	"harbor/internal/expr"
	"harbor/internal/tuple"
)

// drainBatched collects every row DrainBatches produces, cloning out of the
// reused batch.
func drainBatched(t *testing.T, op BatchOperator) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	if err := DrainBatches(op, func(b *tuple.Batch) error {
		if b.Len() == 0 {
			t.Fatal("sink received empty batch")
		}
		for _, r := range b.Rows() {
			out = append(out, r.Clone())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBatchPipelineMatchesRowPipeline(t *testing.T) {
	st := newSite(t)
	ts := tuple.Timestamp(1)
	// Enough rows to span several 256-row batches and several segments.
	for i := 0; i < 700; i++ {
		ts = seed(t, st, ts, mk(int64(i), int64(i%7)))
	}
	pred := expr.Pred{}.And(expr.Term{Field: testDesc().FieldIndex("v"), Op: expr.LT, Value: tuple.VInt(3)})

	mkPlan := func() Operator {
		return &Project{
			Child: &Filter{
				Child: NewSeqScan(st, ScanSpec{Table: 1, Vis: Current}),
				Pred:  pred,
			},
			Fields: []int{2, 3},
		}
	}

	want, err := Drain(mkPlan())
	if err != nil {
		t.Fatal(err)
	}
	got := drainBatched(t, AsBatch(mkPlan()))
	if len(got) != len(want) {
		t.Fatalf("batched rows = %d, tuple-at-a-time = %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d: batched %v != tuple %v", i, got[i], want[i])
		}
	}
}

func TestBatchAdapterWrapsNonNativeOperators(t *testing.T) {
	st := newSite(t)
	ts := tuple.Timestamp(1)
	for i := 0; i < 300; i++ {
		ts = seed(t, st, ts, mk(int64(i), int64(i)))
	}
	// Limit has no native NextBatch; AsBatch must fall back to the adapter.
	plan := &Limit{Child: NewSeqScan(st, ScanSpec{Table: 1, Vis: Current}), N: 260}
	if _, native := Operator(plan).(BatchOperator); native {
		t.Fatal("Limit unexpectedly implements BatchOperator natively")
	}
	rows := drainBatched(t, AsBatch(plan))
	if len(rows) != 260 {
		t.Fatalf("adapter drained %d rows, want 260", len(rows))
	}
}

func TestBatchFilterSkipsEmptyBatches(t *testing.T) {
	st := newSite(t)
	ts := tuple.Timestamp(1)
	// Only one qualifying row, far into the table: the filter must keep
	// pulling past all-filtered batches instead of reporting early EOS.
	for i := 0; i < 600; i++ {
		ts = seed(t, st, ts, mk(int64(i), int64(i)))
	}
	pred := expr.Pred{}.And(expr.Term{Field: testDesc().FieldIndex("id"), Op: expr.EQ, Value: tuple.VInt(599)})
	f := &Filter{Child: NewSeqScan(st, ScanSpec{Table: 1, Vis: Current}), Pred: pred}
	rows := drainBatched(t, f)
	if len(rows) != 1 || rows[0].Key(testDesc()) != 599 {
		t.Fatalf("filter batches: got %d rows %v", len(rows), rows)
	}
}
