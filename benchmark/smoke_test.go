package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"harbor/internal/exec"
	"harbor/internal/tuple"
)

// applies says which named end-to-end metrics each workload must report.
var applies = map[string][]string{
	"commit-logless":  {"commit_tps", "commit_p50_us", "commit_p99_us"},
	"commit-logged":   {"commit_tps", "commit_p50_us", "commit_p99_us"},
	"scan-agg":        {"scan_rows_per_s", "range_scan_p50_us", "range_scan_p99_us", "agg_p50_ms", "agg_p95_ms"},
	"mixed-rw":        {"commit_tps", "commit_p50_us", "commit_p99_us", "scan_rows_per_s"},
	"recover-migrate": {"recover_catchup_ms", "first_read_ms", "migrate_ms_per_range"},
}

// TestSmoke runs every workload at toy size, untraced and traced, through
// the path the driver takes, and checks that every metric BENCHMARK.json
// names is emitted exactly once where it applies, with a finite value, and
// that correctness checks ran.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	const window = 600 * time.Millisecond // the traced run gives each kernel 8 ms of it
	seen := map[string]bool{}
	for _, def := range workloads {
		plain, err := runWorkload(def, 1, toyScale, window, false, out)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runWorkload(def, 1, toyScale, window, true, out)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*report{plain, traced} {
			if r.Failed != 0 {
				t.Errorf("%s: %d of %d operations failed", def.name, r.Failed, r.Attempted)
			}
			if r.Checks == 0 {
				t.Errorf("%s: no correctness check ran", def.name)
			}
			count := map[string]int{}
			for _, m := range r.Metrics {
				count[m.Name]++
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is %v", def.name, m.Name, m.Value)
				}
			}
			for name, n := range count {
				if n != 1 {
					t.Errorf("%s: %s emitted %d times", def.name, name, n)
				}
			}
			for _, d := range endToEndDefs {
				if m, ok := r.get(d.Name); !ok || m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s missing or not positive (%v)", def.name, d.Name, m.Value)
				}
			}
			for _, name := range append(applies[def.name], "failed_ops_share") {
				if _, ok := r.get(name); !ok {
					t.Errorf("%s: named metric %s missing", def.name, name)
				}
			}
		}
		for _, m := range traced.Metrics {
			seen[m.Name] = true
		}
	}
	for _, d := range perLayerDefs {
		if !seen[d.Name] {
			t.Errorf("per-layer metric %s is emitted by no workload", d.Name)
		}
	}
}

// TestManifest keeps BENCHMARK.json and the binary's metric tables one
// thing, and inside the limits the driver enforces before a single run.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `go run . manifest`; regenerate it")
	}
	names := map[string]bool{}
	for _, d := range slices.Concat(unbounded(endToEndDefs), perLayerDefs) {
		if names[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		names[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s: name or unit too long", d.Name)
		}
	}
	if len(perLayerDefs) > 128 || len(endToEndDefs) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(perLayerDefs), len(endToEndDefs))
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// TestCorruptReplicaFails changes one row on one replica behind the
// coordinator's back and requires the end-of-workload check to fail.
func TestCorruptReplicaFails(t *testing.T) {
	w := &commitWorkload{}
	defer func() { w.cl.close() }()
	if err := w.setup(&env{seed: 1, sc: toyScale, dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	w.run(50*time.Millisecond, nil)
	if _, err := w.verify(); err != nil {
		t.Fatalf("healthy replicas failed the check: %v", err)
	}
	site := w.cl.workers[1]
	const tid = 1 << 41
	found, err := exec.UpdateByKey(site.Store, tid, 1, 7, func(old tuple.Tuple) tuple.Tuple {
		old.Values[tuple.FieldFirstUser+2].I64++ // f0
		return old
	})
	if err != nil || !found {
		t.Fatalf("corrupting key 7: found=%v err=%v", found, err)
	}
	if err := site.Store.Commit(tid, w.cl.coord.Authority.HWM(), false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.verify(); err == nil {
		t.Fatal("a diverged replica passed the check")
	}
}
