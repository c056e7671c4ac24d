// Command harbor-bench regenerates the tables and figures of the thesis's
// evaluation (Chapter 6) and prints them in paper-style rows.
//
// Usage:
//
//	harbor-bench table42
//	harbor-bench protocols [-txns 200] [-conc 1,4,16]
//	harbor-bench fig62 [-txns 200] [-conc 1,2,5,10,20]
//	harbor-bench fig63 [-txns 100]
//	harbor-bench fig64 [-segments 20] [-segpages 64]
//	harbor-bench fig65 [-txns 2000]
//	harbor-bench fig66
//	harbor-bench fig67 [-seconds 12]
//	harbor-bench recovery [-rows 100000] [-objects 4]
//	harbor-bench rebalance [-rows 64000] [-seconds 6]
//	harbor-bench all
//
// Absolute numbers depend on the host (fsync latency, loopback RTT, core
// count); the shapes are what reproduce the paper. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"harbor/internal/obs"
	"harbor/internal/sim"
	"harbor/internal/testutil"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	txns := fs.Int("txns", 200, "transactions per stream / workload size")
	concList := fs.String("conc", "1,2,5,10,20", "concurrency levels (fig62)")
	segments := fs.Int("segments", 20, "preloaded segments per table (fig64/65/66)")
	segPages := fs.Int("segpages", 64, "pages per segment")
	seconds := fs.Int("seconds", 12, "timeline length (fig67)")
	rows := fs.Int("rows", 100000, "table cardinality (recovery, rebalance)")
	objects := fs.Int("objects", 4, "tables on the recovering site (recovery)")
	_ = fs.Parse(os.Args[2:])

	var err error
	switch cmd {
	case "table42":
		err = runTable42()
	case "table41":
		runTable41()
	case "protocols":
		conc := parseInts(*concList)
		if *concList == "1,2,5,10,20" { // flag default is fig62's ladder
			conc = []int{1, 4, 16}
		}
		err = runProtocols(conc, *txns)
	case "fig62":
		err = runFig62(parseInts(*concList), *txns)
	case "fig63":
		err = runFig63(*txns)
	case "fig64":
		err = runFig64(*segments, int32(*segPages))
	case "fig65":
		err = runFig65(*segments, int32(*segPages), *txns)
	case "fig66":
		err = runFig66(*segments, int32(*segPages), *txns)
	case "fig67":
		err = runFig67(time.Duration(*seconds) * time.Second)
	case "recovery":
		err = runRecovery(*rows, *objects)
	case "rebalance":
		r := *rows
		if r == 100000 { // flag default is the recovery bench's cardinality
			r = 64000
		}
		s := *seconds
		if s == 12 { // flag default is fig67's timeline length
			s = 6
		}
		err = runRebalance(r, s)
	case "all":
		err = runAll(parseInts(*concList), *txns, *segments, int32(*segPages), time.Duration(*seconds)*time.Second)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "harbor-bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: harbor-bench <table42|table41|protocols|fig62|fig63|fig64|fig65|fig66|fig67|recovery|rebalance|all> [flags]`)
}

func parseInts(s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err == nil {
			out = append(out, v)
		}
	}
	return out
}

func tmp() string {
	dir, err := os.MkdirTemp("", "harbor-bench")
	if err != nil {
		panic(err)
	}
	return dir
}

func runAll(conc []int, txns, segments int, segPages int32, timeline time.Duration) error {
	if err := runTable42(); err != nil {
		return err
	}
	runTable41()
	if err := runFig62(conc, txns); err != nil {
		return err
	}
	if err := runFig63(txns / 2); err != nil {
		return err
	}
	if err := runFig64(segments, segPages); err != nil {
		return err
	}
	if err := runFig65(segments, segPages, txns*5); err != nil {
		return err
	}
	if err := runFig66(segments, segPages, txns*5); err != nil {
		return err
	}
	return runFig67(timeline)
}

// runTable42 measures the Table 4.2 profile on live clusters.
func runTable42() error {
	fmt.Println("== Table 4.2: Overhead of commit protocols ==")
	fmt.Printf("%-18s %10s %14s %14s\n", "Protocol", "Msgs/wkr", "Coord FWs", "Worker FWs")
	desc := sim.BenchDesc()
	for _, protocol := range txn.Protocols() {
		dir := tmp()
		cl, err := testutil.NewCluster(testutil.ClusterConfig{
			Workers: 2, Protocol: protocol, Mode: modeFor(protocol), GroupCommit: true, BaseDir: dir,
		})
		if err != nil {
			return err
		}
		if err := cl.CreateReplicatedTable(1, desc, 64); err != nil {
			cl.Close()
			return err
		}
		cl.Coord.Obs().Reset()
		for _, w := range cl.Workers {
			w.Obs().Reset()
		}
		const n = 50
		for i := 0; i < n; i++ {
			tx := cl.Coord.Begin()
			if err := tx.Insert(1, sim.BenchTuple(desc, int64(i))); err != nil {
				cl.Close()
				return err
			}
			if _, err := tx.Commit(); err != nil {
				cl.Close()
				return err
			}
		}
		coordFW := float64(cl.Coord.Obs().Snapshot().Counters["wal.force_calls"]) / n
		var workerFW float64
		for _, w := range cl.Workers {
			workerFW += float64(w.Obs().Snapshot().Counters["wal.force_calls"])
		}
		workerFW /= 2 * n
		want := protocol.ExpectedCost()
		fmt.Printf("%-18s %10d %14.1f %14.1f   (plan: %d / %d / %d)\n",
			protocol, want.MessagesPerWorker, coordFW, workerFW,
			want.MessagesPerWorker, want.CoordForcedWrites, want.WorkerForcedWrites)
		cl.Close()
		os.RemoveAll(dir)
	}
	fmt.Println()
	return nil
}

// modeFor pairs a protocol with its natural recovery mode: plans with
// worker force points keep a WAL and recover with ARIES; logless plans
// recover from replicas.
func modeFor(p txn.Protocol) worker.RecoveryMode {
	if p.Plan().WorkerForces() {
		return worker.ARIES
	}
	return worker.HARBOR
}

// protoResult is one data point of the protocols baseline. The latency
// percentiles and histogram come from the coordinator's obs registry
// (coord.commit.latency.ns), not from wall-clock division, so tail behaviour
// is visible in the baseline.
type protoResult struct {
	Protocol     string            `json:"protocol"`
	Concurrency  int               `json:"concurrency"`
	Txns         int               `json:"txns"`
	TPS          float64           `json:"tps"`
	AvgLatencyUS float64           `json:"avg_latency_us"`
	P50US        float64           `json:"p50_latency_us,omitempty"`
	P95US        float64           `json:"p95_latency_us,omitempty"`
	P99US        float64           `json:"p99_latency_us,omitempty"`
	MsgsPerWkr   int               `json:"messages_per_worker"`
	CoordFW      int               `json:"coord_forced_writes"`
	WorkerFW     int               `json:"worker_forced_writes"`
	CommitHist   *obs.HistSnapshot `json:"commit_latency_ns,omitempty"`
}

// runProtocols measures per-protocol commit latency/throughput at a few
// concurrency levels and emits JSON — the commit-path perf baseline
// (BENCH_protocols.json) future changes are compared against.
func runProtocols(conc []int, txns int) error {
	out := struct {
		Bench         string        `json:"bench"`
		Workers       int           `json:"workers"`
		SyncDelayMS   float64       `json:"sync_delay_ms"`
		TxnsPerStream int           `json:"txns_per_stream"`
		Results       []protoResult `json:"results"`
	}{
		Bench:         "protocols",
		Workers:       2,
		SyncDelayMS:   sim.SimulatedDiskLatency.Seconds() * 1000,
		TxnsPerStream: txns,
	}
	for _, protocol := range txn.Protocols() {
		cfg := sim.ProtoConfig{
			Name:        protocol.String(),
			Protocol:    protocol,
			Mode:        modeFor(protocol),
			GroupCommit: true,
			Workers:     2,
		}
		cost := protocol.ExpectedCost()
		for _, c := range conc {
			dir := tmp()
			res, err := sim.RunCommitBench(dir, cfg, c, txns, 0)
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			pr := protoResult{
				Protocol:     protocol.String(),
				Concurrency:  c,
				Txns:         res.Txns,
				TPS:          res.TPS,
				AvgLatencyUS: float64(res.AvgLatency.Microseconds()),
				MsgsPerWkr:   cost.MessagesPerWorker,
				CoordFW:      cost.CoordForcedWrites,
				WorkerFW:     cost.WorkerForcedWrites,
				CommitHist:   res.CommitLatency,
			}
			if h := res.CommitLatency; h != nil {
				pr.P50US = float64(h.P50) / 1000
				pr.P95US = float64(h.P95) / 1000
				pr.P99US = float64(h.P99) / 1000
			}
			out.Results = append(out.Results, pr)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runTable41 prints the backup-coordinator action table, which is verified
// behaviourally by the worker test suite (TestConsensus*).
func runTable41() {
	fmt.Println("== Table 4.1: Action table for backup coordinator ==")
	fmt.Println("(behaviour verified by internal/worker TestConsensus* tests)")
	rows := [][2]string{
		{"pending", "abort"},
		{"prepared, voted NO", "abort"},
		{"prepared, voted YES", "prepare, then abort"},
		{"aborted", "abort"},
		{"prepared-to-commit", "prepare-to-commit, then commit"},
		{"committed", "commit"},
	}
	fmt.Printf("%-24s %s\n", "Backup state", "Action(s)")
	for _, r := range rows {
		fmt.Printf("%-24s %s\n", r[0], r[1])
	}
	fmt.Println()
}

func runFig62(conc []int, txns int) error {
	fmt.Println("== Figure 6-2: Transaction processing performance of commit protocols ==")
	fmt.Printf("%-36s", "Protocol \\ concurrency")
	for _, c := range conc {
		fmt.Printf(" %8d", c)
	}
	fmt.Println("   (tps)")
	for _, cfg := range sim.StandardConfigs() {
		fmt.Printf("%-36s", cfg.Name)
		for _, c := range conc {
			dir := tmp()
			res, err := sim.RunCommitBench(dir, cfg, c, txns, 0)
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			fmt.Printf(" %8.0f", res.TPS)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func runFig63(txns int) error {
	fmt.Println("== Figure 6-3: Transaction processing with simulated CPU work ==")
	cycles := []int64{0, 250_000, 500_000, 1_000_000, 2_000_000, 5_000_000}
	for _, concurrency := range []int{1, 5, 10} {
		fmt.Printf("-- %d concurrent transaction(s) --\n", concurrency)
		fmt.Printf("%-36s", "Protocol \\ cycles")
		for _, cy := range cycles {
			fmt.Printf(" %9d", cy)
		}
		fmt.Println("   (tps)")
		for _, cfg := range sim.StandardConfigs()[:4] {
			fmt.Printf("%-36s", cfg.Name)
			for _, cy := range cycles {
				dir := tmp()
				res, err := sim.RunCommitBench(dir, cfg, concurrency, txns, cy)
				os.RemoveAll(dir)
				if err != nil {
					return err
				}
				fmt.Printf(" %9.0f", res.TPS)
			}
			fmt.Println()
		}
	}
	fmt.Println()
	return nil
}

func runFig64(segments int, segPages int32) error {
	fmt.Println("== Figure 6-4: Recovery time vs insert transactions since crash ==")
	txnCounts := []int{100, 500, 1000, 2000, 4000}
	scenarios := []sim.RecoveryScenario{
		sim.Aries1Table, sim.Harbor1Table, sim.Harbor2TablesSerial, sim.Harbor2TablesParallel,
	}
	fmt.Printf("%-28s", "Scenario \\ txns")
	for _, n := range txnCounts {
		fmt.Printf(" %8d", n)
	}
	fmt.Println("   (recovery ms)")
	for _, sc := range scenarios {
		fmt.Printf("%-28s", sc)
		for _, n := range txnCounts {
			dir := tmp()
			res, err := sim.RunRecoveryBench(dir, sim.RecoveryParams{
				Scenario: sc, PreloadSegments: segments, SegPages: segPages, InsertTxns: n,
			})
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			fmt.Printf(" %8.0f", res.RecoveryTime.Seconds()*1000)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func runFig65(segments int, segPages int32, txns int) error {
	fmt.Println("== Figure 6-5: Recovery time vs historical segments updated ==")
	histSegs := []int{0, 2, 4, 8, 12, 16}
	scenarios := []sim.RecoveryScenario{
		sim.Aries1Table, sim.Harbor1Table, sim.Harbor2TablesSerial, sim.Harbor2TablesParallel,
	}
	fmt.Printf("%-28s", "Scenario \\ hist segments")
	for _, h := range histSegs {
		fmt.Printf(" %8d", h)
	}
	fmt.Println("   (recovery ms)")
	for _, sc := range scenarios {
		fmt.Printf("%-28s", sc)
		for _, h := range histSegs {
			if h >= segments {
				fmt.Printf(" %8s", "-")
				continue
			}
			dir := tmp()
			res, err := sim.RunRecoveryBench(dir, sim.RecoveryParams{
				Scenario: sc, PreloadSegments: segments, SegPages: segPages,
				InsertTxns: txns, HistoricalSegmentUpdates: h,
			})
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			fmt.Printf(" %8.0f", res.RecoveryTime.Seconds()*1000)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func runFig66(segments int, segPages int32, txns int) error {
	fmt.Println("== Figure 6-6: Decomposition of HARBOR recovery by phase ==")
	histSegs := []int{0, 2, 4, 8, 12, 16}
	fmt.Printf("%8s %10s %14s %14s %10s %10s\n",
		"histseg", "phase1-ms", "p2(SEL+UPD)-ms", "p2(SEL+INS)-ms", "phase3-ms", "total-ms")
	for _, h := range histSegs {
		if h >= segments {
			continue
		}
		dir := tmp()
		res, err := sim.RunRecoveryBench(dir, sim.RecoveryParams{
			Scenario: sim.Harbor1Table, PreloadSegments: segments, SegPages: segPages,
			InsertTxns: txns, HistoricalSegmentUpdates: h,
		})
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
		fmt.Printf("%8d %10.1f %14.1f %14.1f %10.1f %10.1f\n",
			h, ms(res.Phase1), ms(res.Phase2Update), ms(res.Phase2Insert), ms(res.Phase3),
			ms(res.RecoveryTime))
	}
	fmt.Println()
	return nil
}

func runFig67(total time.Duration) error {
	fmt.Println("== Figure 6-7: Transaction processing during site failure and recovery ==")
	dir := tmp()
	defer os.RemoveAll(dir)
	samples, err := sim.RunFailoverTimeline(dir, sim.TimelineParams{
		Total:       total,
		CrashAt:     total / 4,
		RecoverAt:   total / 2,
		SampleEvery: 250 * time.Millisecond,
		PreloadRows: 500,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s  %s\n", "t (s)", "tps", "event")
	for _, s := range samples {
		ev := s.Event
		fmt.Printf("%10.2f %10.0f  %s\n", s.At.Seconds(), s.TPS, ev)
	}
	fmt.Println()
	return nil
}
