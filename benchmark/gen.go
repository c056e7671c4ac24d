package main

import (
	"fmt"
	"hash/fnv"

	"harbor/internal/tuple"
)

// The benchmark schema is the thesis's evaluation shape (§6.2): 16
// four-byte-integer-equivalent physical fields, the two timestamps
// included. "id" is the tuple identifier, "g" a low-cardinality group
// column (id mod groups) for the grouped aggregates, and f0..f11 payload.
const (
	groups        = 64
	payloadFields = 12
)

func benchDesc() *tuple.Desc {
	fields := []tuple.FieldDef{
		{Name: "id", Type: tuple.Int64},
		{Name: "g", Type: tuple.Int64},
	}
	for i := 0; i < payloadFields; i++ {
		fields = append(fields, tuple.FieldDef{Name: fmt.Sprintf("f%d", i), Type: tuple.Int32})
	}
	return tuple.MustDesc("id", fields...)
}

// payload0 is the value of field f0 for version ver of row id. It is the
// column the aggregates sum, so expected sums are computed from it without
// reading the database.
func payload0(id, ver int64) int64 { return (id*7 + ver*13) % 1000 }

// makeRow builds version ver of row id. Every field is a function of
// (id, ver) alone, so any replica's content can be recomputed by the
// checker from the list of committed (id, ver) pairs.
func makeRow(d *tuple.Desc, id, ver int64) tuple.Tuple {
	vals := make([]tuple.Value, 2+payloadFields)
	vals[0] = tuple.VInt(id)
	vals[1] = tuple.VInt(id % groups)
	vals[2] = tuple.VInt(payload0(id, ver))
	for i := 1; i < payloadFields; i++ {
		vals[2+i] = tuple.VInt((id + ver + int64(i)) % 100000)
	}
	return tuple.MustMake(d, vals...)
}

// loadedRow is makeRow stamped as committed at the preload time.
func loadedRow(d *tuple.Desc, id int64) tuple.Tuple {
	t := makeRow(d, id, 0)
	t.SetInsTS(loadTS)
	return t
}

// rowHash folds one stored row version into the (key, insTS, delTS,
// payload-hash) form the replica comparison uses.
func rowHash(d *tuple.Desc, t tuple.Tuple) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range t.Values[tuple.FieldFirstUser:] {
		x := uint64(v.I64)
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// rng is a splitmix64 generator: the same seed gives the same inputs on
// every host and Go version (math/rand's stream is not part of its API
// contract across versions).
type rng struct{ s uint64 }

func newRng(seed int64, stream int) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }
