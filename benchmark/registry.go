package main

import (
	"strings"

	"harbor/internal/obs"
)

// regDelta is the change of a set of obs registries over one or more
// windows (source R): counters, and histogram sums and counts. Histogram
// buckets are deliberately not read — percentiles come from the
// benchmark's own samples. Labelled metrics (comm.dials{site=2}) fold into
// their base name.
type regDelta struct {
	counters  map[string]float64
	histSum   map[string]float64
	histCount map[string]float64
}

func newRegDelta() *regDelta {
	return &regDelta{
		counters:  map[string]float64{},
		histSum:   map[string]float64{},
		histCount: map[string]float64{},
	}
}

func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (d *regDelta) add(before, after obs.Snapshot) {
	for name, v := range after.Counters {
		d.counters[baseName(name)] += float64(v - before.Counters[name])
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		d.histSum[baseName(name)] += float64(h.Sum - b.Sum)
		d.histCount[baseName(name)] += float64(h.Count - b.Count)
	}
}

// histMean is the mean observation of a histogram over the window.
func (d *regDelta) histMean(name string) float64 {
	return ratio(d.histSum[name], d.histCount[name])
}

// registryWindow accumulates registry deltas, coordinator and workers kept
// apart because both own a wal.* family. A registry is re-created when its
// site restarts, so a window is opened against the registries live at that
// moment and closed against the same objects.
type registryWindow struct {
	coord   *regDelta
	workers *regDelta
}

func newRegistryWindow() *registryWindow {
	return &registryWindow{coord: newRegDelta(), workers: newRegDelta()}
}

// open snapshots the cluster's live registries and returns the function
// that closes the window and folds the deltas in. A nil window (the
// untraced pass) records nothing.
func (w *registryWindow) open(cl *cluster) (closeWindow func()) {
	if w == nil {
		return func() {}
	}
	regs := cl.registries()
	before := make([]obs.Snapshot, len(regs))
	for i, r := range regs {
		before[i] = r.Snapshot()
	}
	return func() {
		for i, r := range regs {
			into := w.workers
			if i == 0 {
				into = w.coord
			}
			into.add(before[i], r.Snapshot())
		}
	}
}

// counter sums a counter over coordinator and workers.
func (w *registryWindow) counter(name string) float64 {
	return w.coord.counters[name] + w.workers.counters[name]
}
