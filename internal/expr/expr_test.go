package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"harbor/internal/tuple"
)

var desc = tuple.MustDesc("id",
	tuple.FieldDef{Name: "id", Type: tuple.Int64},
	tuple.FieldDef{Name: "qty", Type: tuple.Int32},
	tuple.FieldDef{Name: "name", Type: tuple.Char, Size: 8},
)

func mk(id, qty int64, name string) tuple.Tuple {
	return tuple.MustMake(desc, tuple.VInt(id), tuple.VInt(qty), tuple.VStr(name))
}

func TestTermOps(t *testing.T) {
	tp := mk(10, 5, "dell")
	qf := desc.FieldIndex("qty")
	cases := []struct {
		op   Op
		v    int64
		want bool
	}{
		{EQ, 5, true}, {EQ, 6, false},
		{NE, 5, false}, {NE, 4, true},
		{LT, 6, true}, {LT, 5, false},
		{LE, 5, true}, {LE, 4, false},
		{GT, 4, true}, {GT, 5, false},
		{GE, 5, true}, {GE, 6, false},
	}
	for _, c := range cases {
		term := Term{Field: qf, Op: c.op, Value: tuple.VInt(c.v)}
		if got := term.Eval(desc, tp); got != c.want {
			t.Errorf("qty %s %d: got %v want %v", c.op, c.v, got, c.want)
		}
	}
}

func TestCharComparison(t *testing.T) {
	tp := mk(1, 0, "dell")
	nf := desc.FieldIndex("name")
	if !(Term{Field: nf, Op: EQ, Value: tuple.VStr("dell")}).Eval(desc, tp) {
		t.Fatal("EQ on char failed")
	}
	if !(Term{Field: nf, Op: LT, Value: tuple.VStr("ipod")}).Eval(desc, tp) {
		t.Fatal("dell < ipod should hold")
	}
	if (Term{Field: nf, Op: GT, Value: tuple.VStr("ipod")}).Eval(desc, tp) {
		t.Fatal("dell > ipod should not hold")
	}
}

func TestPredConjunction(t *testing.T) {
	tp := mk(10, 5, "dell")
	p := True.
		And(Term{Field: desc.Key, Op: GE, Value: tuple.VInt(5)}).
		And(Term{Field: desc.FieldIndex("qty"), Op: LT, Value: tuple.VInt(6)})
	if !p.Eval(desc, tp) {
		t.Fatal("conjunction should hold")
	}
	p2 := p.And(Term{Field: desc.FieldIndex("name"), Op: EQ, Value: tuple.VStr("ipod")})
	if p2.Eval(desc, tp) {
		t.Fatal("conjunction with false term should fail")
	}
	if !True.Eval(desc, tp) || !True.IsTrue() {
		t.Fatal("empty predicate must be true")
	}
	// And must not mutate the receiver.
	if len(p.Terms) != 2 {
		t.Fatal("And mutated its receiver")
	}
}

func TestKeyRange(t *testing.T) {
	full := FullKeyRange()
	if !full.Contains(math.MinInt64) || !full.Contains(0) || !full.Contains(math.MaxInt64) {
		t.Fatal("full range must contain everything")
	}
	r := KeyRange{Lo: 10, Hi: 20}
	if r.Contains(9) || !r.Contains(10) || !r.Contains(19) || r.Contains(20) {
		t.Fatal("half-open semantics violated")
	}
	if (KeyRange{Lo: 5, Hi: 5}).Contains(5) {
		t.Fatal("empty range should not contain its bound")
	}
	if !(KeyRange{Lo: 5, Hi: 5}).Empty() {
		t.Fatal("lo==hi should be empty")
	}
	if full.Empty() {
		t.Fatal("full range is not empty")
	}
}

func TestKeyRangeIntersect(t *testing.T) {
	a := KeyRange{Lo: 0, Hi: 100}
	b := KeyRange{Lo: 50, Hi: 200}
	got := a.Intersect(b)
	if got.Lo != 50 || got.Hi != 100 {
		t.Fatalf("intersect = %v", got)
	}
	if !a.Intersect(KeyRange{Lo: 200, Hi: 300}).Empty() {
		t.Fatal("disjoint ranges must intersect to empty")
	}
	if got := FullKeyRange().Intersect(a); got != a {
		t.Fatalf("full ∩ a = %v, want %v", got, a)
	}
}

func TestKeyRangePred(t *testing.T) {
	r := KeyRange{Lo: 10, Hi: 20}
	p := r.Pred(desc)
	for k := int64(5); k < 25; k++ {
		if got := p.Eval(desc, mk(k, 0, "")); got != r.Contains(k) {
			t.Fatalf("key %d: pred %v, range %v", k, got, r.Contains(k))
		}
	}
	if !FullKeyRange().Pred(desc).IsTrue() {
		t.Fatal("full range should compile to TRUE")
	}
}

// Property: KeyRange.Pred is equivalent to KeyRange.Contains.
func TestQuickKeyRangePredEquivalence(t *testing.T) {
	f := func(lo, hi, k int64) bool {
		r := KeyRange{Lo: lo, Hi: hi}
		return r.Pred(desc).Eval(desc, mk(k, 0, "")) == r.Contains(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersect(a,b).Contains(k) == a.Contains(k) && b.Contains(k).
func TestQuickIntersectSemantics(t *testing.T) {
	f := func(alo, ahi, blo, bhi, k int64) bool {
		a := KeyRange{Lo: alo, Hi: ahi}
		b := KeyRange{Lo: blo, Hi: bhi}
		return a.Intersect(b).Contains(k) == (a.Contains(k) && b.Contains(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	if True.String() != "TRUE" {
		t.Fatalf("True renders as %q", True.String())
	}
	p := True.And(Term{Field: 2, Op: GE, Value: tuple.VInt(3)})
	if p.String() == "" || p.String() == "TRUE" {
		t.Fatalf("predicate renders as %q", p.String())
	}
	if FullKeyRange().String() != "[*,*)" {
		t.Fatalf("full range renders as %q", FullKeyRange().String())
	}
}

func keyTerm(op Op, v int64) Term { return Term{Field: desc.Key, Op: op, Value: tuple.VInt(v)} }

func TestPredKeyRange(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	qty := Term{Field: desc.FieldIndex("qty"), Op: LT, Value: tuple.VInt(3)}
	cases := []struct {
		label string
		pred  Pred
		want  KeyRange
	}{
		{"true", True, FullKeyRange()},
		{"other field only", True.And(qty), FullKeyRange()},
		{"ne constrains nothing", True.And(keyTerm(NE, 7)), FullKeyRange()},
		{"eq", True.And(keyTerm(EQ, 7)), KeyRange{7, 8}},
		{"half-open", True.And(keyTerm(GE, 10), keyTerm(LT, 20)), KeyRange{10, 20}},
		{"closed", True.And(keyTerm(GE, 10), keyTerm(LE, 20)), KeyRange{10, 21}},
		{"open below", True.And(keyTerm(GT, 10), qty), KeyRange{11, maxI}},
		{"unbounded below", True.And(keyTerm(LT, 20)), KeyRange{minI, 20}},
		{"tightest of several", True.And(keyTerm(GE, 1), keyTerm(GE, 5), keyTerm(LT, 9), keyTerm(LE, 6)), KeyRange{5, 7}},
		{"eq max", True.And(keyTerm(EQ, maxI)), KeyRange{maxI, maxI}},
		{"le max", True.And(keyTerm(LE, maxI)), FullKeyRange()},
		{"ge min", True.And(keyTerm(GE, minI)), FullKeyRange()},
		{"eq min", True.And(keyTerm(EQ, minI)), KeyRange{minI, minI + 1}},
		{"inverted", True.And(keyTerm(GE, 10), keyTerm(LT, 5)), KeyRange{}},
		{"gt max", True.And(keyTerm(GT, maxI)), KeyRange{}},
		{"lt min", True.And(keyTerm(LT, minI)), KeyRange{}},
		{"two different eq", True.And(keyTerm(EQ, 3), keyTerm(EQ, 4)), KeyRange{}},
		{"touching bounds", True.And(keyTerm(GT, 5), keyTerm(LT, 6)), KeyRange{}},
	}
	for _, c := range cases {
		got := c.pred.KeyRange(desc)
		if got != c.want {
			t.Errorf("%s: KeyRange(%v) = %v, want %v", c.label, c.pred, got, c.want)
		}
		if c.want == (KeyRange{}) && !got.Empty() {
			t.Errorf("%s: contradictory predicate must yield an empty range", c.label)
		}
	}
	// Round trip: a range's predicate implies the range again.
	for _, r := range []KeyRange{FullKeyRange(), {10, 20}, {minI, 0}, {0, maxI}, {maxI, maxI}} {
		if got := r.Pred(desc).KeyRange(desc); got != r {
			t.Errorf("Pred(%v).KeyRange() = %v", r, got)
		}
	}
}

// Property: the derived range never excludes a key the predicate accepts,
// and over key-only EQ/LT/LE/GT/GE terms it accepts nothing more — except
// MaxInt64 itself, which a KeyRange ending at MaxInt64 cannot exclude.
func TestQuickPredKeyRangeSound(t *testing.T) {
	ops := []Op{EQ, NE, LT, LE, GT, GE}
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(6))
	pick := func() int64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Int63n(41) - 20
	}
	for i := 0; i < 5000; i++ {
		p, exact := True, true
		for n := rng.Intn(4); n >= 0; n-- {
			op := ops[rng.Intn(len(ops))]
			exact = exact && op != NE
			p = p.And(keyTerm(op, pick()))
		}
		r := p.KeyRange(desc)
		for j := 0; j < 50; j++ {
			k := pick()
			holds, in := p.Eval(desc, mk(k, 0, "")), r.Contains(k)
			if holds && !in {
				t.Fatalf("%v accepts key %d but its range %v does not", p, k, r)
			}
			if exact && in && !holds && k != math.MaxInt64 {
				t.Fatalf("range %v of %v is not tight: contains %d", r, p, k)
			}
		}
	}
}

func TestKeyRangeOverlaps(t *testing.T) {
	r := KeyRange{Lo: 10, Hi: 20}
	for _, c := range []struct {
		lo, hi int64
		want   bool
	}{
		{0, 9, false}, {0, 10, true}, {12, 13, true}, {19, 30, true}, {20, 30, false},
		{math.MinInt64, math.MaxInt64, true},
	} {
		if got := r.Overlaps(c.lo, c.hi); got != c.want {
			t.Errorf("%v.Overlaps(%d,%d) = %v, want %v", r, c.lo, c.hi, got, c.want)
		}
	}
	if !(KeyRange{Lo: 5, Hi: math.MaxInt64}).Overlaps(math.MaxInt64, math.MaxInt64) {
		t.Error("a range unbounded above must overlap a page holding MaxInt64")
	}
	for _, empty := range []KeyRange{{}, {10, 5}, {7, 7}} {
		if empty.Overlaps(math.MinInt64, math.MaxInt64) {
			t.Errorf("empty range %v overlaps", empty)
		}
	}
}
