package exec

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	// Count counts tuples per group.
	Count AggFunc = iota + 1
	// Sum sums an integer field.
	Sum
	// Min takes the minimum of an integer field.
	Min
	// Max takes the maximum of an integer field.
	Max
	// Avg averages an integer field (integer division).
	Avg
)

// AggSpec is one aggregate column.
type AggSpec struct {
	Fn    AggFunc
	Field int // input field (ignored for Count)
}
