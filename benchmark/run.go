package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// passConfig says how one pass of one workload runs.
type passConfig struct {
	seed   int64
	sc     scale
	window time.Duration
	traced bool
	setups int    // set-ups to time; all but the last are torn down unused
	outDir string // scratch directories and trace files go under it
}

// runPass runs one pass of one workload from fresh state: set-up (timed,
// possibly several times over), the window, the correctness checks, and the
// report. The cluster's directories are removed whatever happens.
func runPass(def workloadDef, p passConfig) (*report, error) {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	var reg *registryWindow
	if p.traced {
		reg = newRegistryWindow()
	}

	var w workload
	var setupS []float64
	for i := 0; i < p.setups; i++ {
		dir, err := os.MkdirTemp(p.outDir, "sites-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		w = def.make()
		if p.traced {
			tr = newTracer()
		}
		took := timed(func() { err = w.setup(&env{seed: p.seed, sc: p.sc, dir: dir, tr: tr}) })
		setupS = append(setupS, took.Seconds())
		if err != nil {
			w.cluster().close()
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		if i < p.setups-1 {
			w.cluster().close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer w.cluster().close()

	w.run(p.window, reg)
	if p.traced {
		if err := w.baselines(); err != nil {
			return nil, fmt.Errorf("%s: direct-worker baselines: %w", def.name, err)
		}
	}
	verified, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: correctness check failed: %w", def.name, err)
	}

	r := &report{Workload: def.name, Traced: p.traced, Seed: p.seed, Seconds: p.window.Seconds()}
	var checks int
	r.Attempted, r.Failed, checks = w.counts()
	r.Checks = checks + verified
	if r.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation was attempted in %v", def.name, p.window)
	}
	r.add("setup_s", "s", median(setupS), len(setupS))
	h := w.headline()
	r.add("work_per_s", "1/s", h.workPerS, int(r.Attempted))
	r.add("work2_per_s", "1/s", h.work2PerS, int(r.Attempted))
	r.add("op_p50_us", "us", h.opP50US, int(r.Attempted))
	r.add("op_p95_us", "us", h.opP95US, int(r.Attempted))
	r.add("peak_rss_mb", "MB", peakRSSMB(), 1)
	r.add("failed_ops_share", "ratio", ratio(float64(r.Failed), float64(r.Attempted)), int(r.Attempted))
	w.endToEnd(r)
	if p.traced {
		commonLayers(r, reg, w.cluster().cfg)
		spaceLayer(r, w.cluster(), float64(w.liveRows())*float64(benchDesc().Width()))
		w.layers(r, reg, tr.totals())
		if err := tr.write(filepath.Join(p.outDir, "trace-"+def.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return r, r.finite()
}

// untracedSetups is how many times an untraced run sets up; setup_s is the
// median. Five, because set-up is fsync-bound and a single slow flush on
// the shared host would otherwise be the reported figure one run in three.
const untracedSetups = 5

// A traced run has one window to spend on three things: a short untraced
// pass, the base of obs.traced_overhead_share; the traced pass; and the
// kernels, which share the rest evenly.
const (
	tracedBaselineShare = 0.3
	tracedPassShare     = 0.4
)

// runWorkload is one run of one workload with one seed and one window: what
// the driver invokes, and what a full run repeats for every workload.
// Untraced, it reports the end-to-end metrics. Traced, it reports every
// per-layer metric, the kernels' and the ledger's included.
func runWorkload(def workloadDef, seed int64, sc scale, window time.Duration, traced bool, outDir string) (*report, error) {
	p := passConfig{seed: seed, sc: sc, window: window, setups: untracedSetups, outDir: outDir}
	if !traced {
		return runPass(def, p)
	}
	share := func(s float64) time.Duration { return time.Duration(float64(window) * s) }
	p.setups, p.window = 1, share(tracedBaselineShare)
	baseline, err := runPass(def, p)
	if err != nil {
		return nil, err
	}
	p.traced, p.window = true, share(tracedPassShare)
	r, err := runPass(def, p)
	if err != nil {
		return nil, err
	}
	b, _ := baseline.get("work_per_s")
	t, _ := r.get("work_per_s")
	r.add("obs.traced_overhead_share", "ratio", 1-ratio(t.Value, b.Value), 2)
	perKernel := share(1-tracedBaselineShare-tracedPassShare) / kernelCount
	if err := runKernels(r, outDir, perKernel, seed); err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	addLedger(r, sc)
	return r, nil
}

// addLedger computes ledger.unattributed_share from a traced report that
// already holds the kernels' unit costs.
func addLedger(r *report, sc scale) {
	attributed, latency := attribute(r.Workload, sc, func(name string) float64 {
		m, _ := r.get(name)
		return m.Value
	})
	r.add("ledger.attributed_us", "us", attributed, 1)
	r.add("ledger.unattributed_share", "ratio", 1-ratio(attributed, latency), 1)
}
