package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (source S). Start and End are nanoseconds since
// the trace began; Parent is the index of the causing span within the same
// client (-1 for a root); spans of one client operation share OpID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	OpID   int64  `json:"op_id"`
	Client int    `json:"client"`
}

// clientTrace holds one client goroutine's spans, so recording takes no
// lock. A nil *clientTrace is the untraced pass: every method is a no-op.
type clientTrace struct {
	base   time.Time
	client int
	spans  []span
}

func (c *clientTrace) begin(name string, parent int32, op int64) int32 {
	if c == nil {
		return -1
	}
	c.spans = append(c.spans, span{Name: name, Start: int64(time.Since(c.base)),
		Parent: parent, OpID: op, Client: c.client})
	return int32(len(c.spans) - 1)
}

func (c *clientTrace) end(i int32) {
	if c == nil {
		return
	}
	c.spans[i].End = int64(time.Since(c.base))
}

// tracer owns the per-client traces of one traced pass.
type tracer struct {
	base    time.Time
	clients []*clientTrace
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// client returns a fresh per-goroutine trace; nil when t is nil.
func (t *tracer) client() *clientTrace {
	if t == nil {
		return nil
	}
	c := &clientTrace{base: t.base, client: len(t.clients)}
	t.clients = append(t.clients, c)
	return c
}

// spanTotals is the aggregate of every span carrying one name.
type spanTotals struct {
	count int
	total time.Duration // inclusive
	self  time.Duration // total minus the time children cover
}

// totals aggregates spans by name. A span's self time is its duration minus
// its direct children's; children of one parent never overlap here because
// each client issues its calls sequentially.
func (t *tracer) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	if t == nil {
		return out
	}
	for _, c := range t.clients {
		dur := make([]time.Duration, len(c.spans))
		child := make([]time.Duration, len(c.spans))
		for i, s := range c.spans {
			dur[i] = time.Duration(s.End - s.Start)
			if s.Parent >= 0 {
				child[s.Parent] += dur[i]
			}
		}
		for i, s := range c.spans {
			a := out[s.Name]
			a.count++
			a.total += dur[i]
			a.self += dur[i] - child[i]
			out[s.Name] = a
		}
	}
	return out
}

// meanUS is the mean inclusive duration of the named span in microseconds.
func (a spanTotals) meanUS() float64 {
	return ratio(float64(a.total.Microseconds()), float64(a.count))
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, c := range t.clients {
		for _, s := range c.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
