package tuple

// Batch is a reusable slab of tuples — the unit of exchange of the
// batch-at-a-time pipeline. exec.SeqScan fills it with NextBatch, the worker
// packs its rows into one wire frame, and recovery applies it in bulk.
// The backing array is retained across Reset so a steady-state pipeline
// recycles one allocation per stream, not one per row.
type Batch struct {
	rows []Tuple
}

// NewBatch returns a batch with capacity for n rows.
func NewBatch(n int) *Batch {
	return &Batch{rows: make([]Tuple, 0, n)}
}

// Reset empties the batch, keeping the backing array.
func (b *Batch) Reset() { b.rows = b.rows[:0] }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Row returns row i.
func (b *Batch) Row(i int) Tuple { return b.rows[i] }

// Append adds a row.
func (b *Batch) Append(t Tuple) { b.rows = append(b.rows, t) }

// Rows returns the filled prefix; valid until the next Reset.
func (b *Batch) Rows() []Tuple { return b.rows }

// EncodeTo appends the batch's rows to buf in the fixed-width heap-page
// row encoding (d.Width() bytes per row, no per-row framing) and returns
// the extended buffer — the payload format of a wire.MsgTupleBatch frame.
func (b *Batch) EncodeTo(d *Desc, buf []byte) []byte {
	w := d.Width()
	off := len(buf)
	buf = append(buf, make([]byte, w*len(b.rows))...)
	for _, t := range b.rows {
		t.EncodeTo(d, buf[off:])
		off += w
	}
	return buf
}

// DecodeBatch appends the rows packed in raw (len(raw) must be an exact
// multiple of d.Width()) to the batch.
func (b *Batch) DecodeBatch(d *Desc, raw []byte) error {
	w := d.Width()
	for off := 0; off+w <= len(raw); off += w {
		t, err := Decode(d, raw[off:off+w])
		if err != nil {
			return err
		}
		b.rows = append(b.rows, t)
	}
	return nil
}
