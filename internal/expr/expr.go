// Package expr provides the predicate language used by scans, update
// distribution, and recovery-plan computation.
//
// HARBOR's recovery queries only need conjunctions of comparisons against
// constants — including the three timestamp range predicates of §4.2
// (insertion-time ≤ T, insertion-time > T, deletion-time > T) and the key
// ranges that define horizontal partitions — so the language is a
// conjunction of (field op constant) terms. That also matches the thesis
// implementation, which had no SQL frontend (§6.1.5).
package expr

import (
	"fmt"
	"math"
	"strings"

	"harbor/internal/tuple"
)

// Op is a comparison operator.
type Op uint8

const (
	EQ Op = iota + 1
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Term is one comparison: field <op> constant. For Char fields the
// comparison is lexicographic on Str; for integer fields it is numeric
// on I64.
type Term struct {
	Field int // physical field index
	Op    Op
	Value tuple.Value
}

// Eval evaluates the term against a tuple under its schema.
func (t Term) Eval(d *tuple.Desc, tp tuple.Tuple) bool {
	var cmp int
	if d.Fields[t.Field].Type == tuple.Char {
		cmp = strings.Compare(tp.Values[t.Field].Str, t.Value.Str)
	} else {
		a, b := tp.Values[t.Field].I64, t.Value.I64
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	}
	switch t.Op {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	default:
		return false
	}
}

// Pred is a conjunction of terms. The zero value (no terms) is "true".
type Pred struct {
	Terms []Term
}

// True is the always-true predicate.
var True = Pred{}

// And returns a predicate that is the conjunction of p and terms.
func (p Pred) And(terms ...Term) Pred {
	out := Pred{Terms: make([]Term, 0, len(p.Terms)+len(terms))}
	out.Terms = append(out.Terms, p.Terms...)
	out.Terms = append(out.Terms, terms...)
	return out
}

// Eval evaluates the conjunction.
func (p Pred) Eval(d *tuple.Desc, tp tuple.Tuple) bool {
	for _, t := range p.Terms {
		if !t.Eval(d, tp) {
			return false
		}
	}
	return true
}

// IsTrue reports whether the predicate has no terms.
func (p Pred) IsTrue() bool { return len(p.Terms) == 0 }

// KeyRange is the inverse of KeyRange.Pred: the tightest range implied by
// the predicate's terms on the key field. NE terms and terms on other
// fields constrain nothing, so every tuple satisfying p has its key inside
// the result and a reader may skip any partition or page disjoint from it.
// A contradictory predicate (k >= 10 AND k < 5, k > MaxInt64, k = x AND
// k = y) yields the zero KeyRange, which is Empty.
func (p Pred) KeyRange(d *tuple.Desc) KeyRange {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64) // both inclusive
	for _, t := range p.Terms {
		if t.Field != d.Key {
			continue
		}
		v := t.Value.I64
		switch t.Op {
		case EQ:
			lo, hi = max(lo, v), min(hi, v)
		case GE:
			lo = max(lo, v)
		case GT:
			if v == math.MaxInt64 {
				return KeyRange{}
			}
			lo = max(lo, v+1)
		case LE:
			hi = min(hi, v)
		case LT:
			if v == math.MinInt64 {
				return KeyRange{}
			}
			hi = min(hi, v-1)
		}
	}
	if lo > hi {
		return KeyRange{}
	}
	if hi < math.MaxInt64 {
		hi++ // half-open; MaxInt64 already reads as unbounded above
	}
	return KeyRange{Lo: lo, Hi: hi}
}

// String renders the predicate.
func (p Pred) String() string {
	if p.IsTrue() {
		return "TRUE"
	}
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		v := fmt.Sprintf("%d", t.Value.I64)
		if t.Value.Str != "" {
			v = fmt.Sprintf("%q", t.Value.Str)
		}
		parts[i] = fmt.Sprintf("f%d %s %s", t.Field, t.Op, v)
	}
	return strings.Join(parts, " AND ")
}

// KeyRange is a half-open interval [Lo, Hi) over the tuple-identifier field,
// used to describe horizontal partitions and the recovery predicates
// computed for recovery objects (§5.1). Lo > Hi never matches; the full
// range is [math.MinInt64, math.MaxInt64] expressed via FullKeyRange.
type KeyRange struct {
	Lo int64 // inclusive
	Hi int64 // exclusive; Hi == math.MaxInt64 means unbounded above
}

// FullKeyRange covers every key.
func FullKeyRange() KeyRange {
	return KeyRange{Lo: -1 << 63, Hi: 1<<63 - 1}
}

// Contains reports whether k falls in the range. As a special case the
// upper bound math.MaxInt64 is treated as +∞ (so MaxInt64 itself matches).
func (r KeyRange) Contains(k int64) bool {
	if k < r.Lo {
		return false
	}
	if r.Hi == 1<<63-1 {
		return true
	}
	return k < r.Hi
}

// Intersect returns the overlap of two ranges (possibly empty).
func (r KeyRange) Intersect(o KeyRange) KeyRange {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return KeyRange{Lo: lo, Hi: hi}
}

// Empty reports whether the range matches nothing.
func (r KeyRange) Empty() bool { return r.Lo >= r.Hi && r.Hi != 1<<63-1 || r.Lo > r.Hi }

// Overlaps reports whether any key of the closed interval [lo, hi] falls in
// the range (the form per-page key bounds take).
func (r KeyRange) Overlaps(lo, hi int64) bool {
	return !r.Empty() && hi >= r.Lo && (r.Hi == math.MaxInt64 || lo < r.Hi)
}

// Pred converts the range into a predicate on the schema's key field.
func (r KeyRange) Pred(d *tuple.Desc) Pred {
	p := Pred{}
	full := FullKeyRange()
	if r.Lo != full.Lo {
		p = p.And(Term{Field: d.Key, Op: GE, Value: tuple.VInt(r.Lo)})
	}
	if r.Hi != full.Hi {
		p = p.And(Term{Field: d.Key, Op: LT, Value: tuple.VInt(r.Hi)})
	}
	return p
}

// String renders the range.
func (r KeyRange) String() string {
	full := FullKeyRange()
	if r == full {
		return "[*,*)"
	}
	return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi)
}
