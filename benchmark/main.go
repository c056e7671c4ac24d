// Command benchmark is the repository's yardstick: five named workloads
// driven through the public API of real in-process clusters, end-to-end
// metrics computed from its own raw samples, and a per-layer ledger taken
// from outside the layers (spans around public calls, registry deltas, and
// kernels on the layers' public functions). It claims no gain; later
// changes state their claims against it. See README.md.
//
//	go run . run                       every workload, untraced and traced, into a result file
//	go run . run -workload scan-agg -trace 0 -seed 7   one run, as the driver invokes it
//	go run . layers                    the kernels alone, a second each
//	go run . compare a.json b.json     two result files, metric by metric
//	go run . manifest                  BENCHMARK.json as this binary defines it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// gcPercent is the collector's pacing for the benchmark process, stated
// here because it is part of the deployment: the coordinator, up to four
// workers and the clients share one Go heap, so at the default of 100 —
// tuned for one process with its own live heap — the collector runs several
// times as often as it would for each site alone. At 100 scan-agg spent a
// third of its time collecting and its medians moved 10 % from process to
// process; at 400 they moved 4 %. Allocation still costs: a quarter of the
// collections remain.
const gcPercent = 400

func main() {
	debug.SetGCPercent(gcPercent)
	os.Exit(realMain(os.Args[1:]))
}

// realMain returns the exit code, so deferred clean-up runs before exit.
func realMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark run|layers|compare|manifest [flags]")
		return 2
	}
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:])
	case "layers":
		err = cmdLayers(args[1:])
	case "compare":
		var worse bool
		worse, err = cmdCompare(args[1:])
		if err == nil && worse {
			return 1
		}
	case "manifest":
		err = printJSON(buildManifest())
	default:
		err = fmt.Errorf("unknown sub-command %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// defaultOutDir is benchmark/out seen from the repository root, or out seen
// from inside benchmark/.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload alone and end with the one-line JSON result; default: all five, untraced and traced, written to -out")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", runSeconds, "length of one run's timed window")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	out := fs.String("out", filepath.Join(defaultOutDir(), "result.json"), "result file of a run of all five workloads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *name == "" {
		return runAll(*seed, window, *out)
	}
	def, err := findWorkload(*name)
	if err != nil {
		return err
	}
	r, err := runWorkload(def, *seed, fullScale, window, *trace == 1, defaultOutDir())
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	return printDriverResult(r)
}

// driverResult is the last line of standard output of a single-workload
// run: exactly these keys.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverResult prints the line the driver reads: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one, 0
// where one does not apply to the workload. A run that failed a check
// never gets here, so correct is true.
func printDriverResult(r *report) error {
	defs := unbounded(endToEndDefs)
	if r.Traced {
		defs = perLayerDefs
	}
	res := driverResult{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range defs {
		m, _ := r.get(d.Name)
		res.Metrics[d.Name] = driverMetric{Value: m.Value, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll is every workload's untraced and traced run, each exactly as the
// driver would invoke it, with the result file `compare` reads written at
// the end.
func runAll(seed int64, window time.Duration, out string) error {
	res := resultFile{Host: gatherHostFacts(seed)}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(def, seed, fullScale, window, traced, defaultOutDir())
			if err != nil {
				return err
			}
			r.print(os.Stdout)
			res.Reports = append(res.Reports, r)
		}
	}
	if err := res.write(out); err != nil {
		return err
	}
	fmt.Printf("# result written to %s\n", out)
	return nil
}

// kernelTime is what `layers` spends on each kernel.
const kernelTime = time.Second

func cmdLayers(args []string) error {
	fs := flag.NewFlagSet("layers", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	outDir := defaultOutDir()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	r := &report{Workload: "layers", Seed: *seed}
	if err := runKernels(r, outDir, kernelTime, *seed); err != nil {
		return err
	}
	r.print(os.Stdout)
	return nil
}
