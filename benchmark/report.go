package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metric is one reported number. N is the count of raw samples (or counted
// events) behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// report is what one pass of one workload produced.
type report struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Checks    int      `json:"checks"` // correctness checks that ran and passed
	Metrics   []metric `json:"metrics"`
}

func (r *report) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// latency adds the median and the gated percentile of an operation's
// latency samples under prefix ("commit" → commit_p50_us, commit_p99_us),
// plus the highest percentile the sample count supports when that differs.
func (r *report) latency(prefix, unit string, s samples, gated float64) {
	s = s.sorted()
	r.add(prefix+"_p50_"+unit, unit, s.quantile(0.5), len(s))
	r.add(fmt.Sprintf("%s_p%s_%s", prefix, pctLabel(gated), unit), unit, s.quantile(gated), len(s))
	if tail := tailPercentile(len(s)); tail > gated {
		r.add(fmt.Sprintf("%s_p%s_%s", prefix, pctLabel(tail), unit), unit, s.quantile(tail), len(s))
	}
}

// pctLabel renders 0.99 as "99" and 0.999 as "99.9".
func pctLabel(p float64) string {
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", p*100), "0"), ".")
}

// print writes the report as `name unit value n` lines.
func (r *report) print(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "# %s (%s pass, seed %d): attempted %d, failed %d, checks passed %d\n",
		r.Workload, pass, r.Seed, r.Attempted, r.Failed, r.Checks)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %d\n", m.Name, m.Unit, m.Value, m.N)
	}
}

// finite fails on a metric that is NaN or infinite: a broken measurement
// must not reach a result file as a number.
func (r *report) finite() error {
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, m.Name, m.Value)
		}
	}
	return nil
}

// peakRSSMB is the process's peak resident set so far. The cluster runs
// inside the benchmark process, so this is system plus harness.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts are recorded with every result file so two files can be told
// apart without their shell history.
type hostFacts struct {
	GitSHA     string `json:"git_sha"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	MaxClients int    `json:"max_clients"`
	GCPercent  int    `json:"gc_percent"`
}

func gatherHostFacts(seed int64) hostFacts {
	return hostFacts{GitSHA: gitSHA(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Seed: seed, MaxClients: maxClients, GCPercent: gcPercent}
}

// gitSHA reads HEAD from the enclosing repository without running git;
// "unknown" outside a repository (the driver's checkout is not one).
func gitSHA() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			sha, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: ")))
			if err != nil {
				return "unknown"
			}
			return strings.TrimSpace(string(sha))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// resultFile is the JSON written to -out by a run of all five workloads.
type resultFile struct {
	Host    hostFacts `json:"host"`
	Reports []*report `json:"reports"`
}

// write stores the file with one report per line, so that a result kept
// beside the sources stays a few lines long.
func (f resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	host, err := json.Marshal(f.Host)
	if err != nil {
		return err
	}
	lines := make([]string, len(f.Reports))
	for i, r := range f.Reports {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		lines[i] = string(b)
	}
	doc := fmt.Sprintf("{\"host\": %s,\n\"reports\": [\n%s\n]}\n", host, strings.Join(lines, ",\n"))
	return os.WriteFile(path, []byte(doc), 0o644)
}
