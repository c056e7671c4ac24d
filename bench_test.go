// Benchmarks reproducing every table and figure of the thesis's evaluation
// (Chapter 6) at laptop scale. Each benchmark reports the paper's metric as
// a custom unit so `go test -bench=.` regenerates the series:
//
//	Table 4.2  BenchmarkTable42_ProtocolCosts      (forced-writes & messages, verified counts)
//	Fig  6-2   BenchmarkFig62_CommitProtocols      (tps per protocol × concurrency)
//	Fig  6-3   BenchmarkFig63_CPUWork              (tps per protocol × simulated work)
//	Fig  6-4   BenchmarkFig64_RecoveryInserts      (recovery seconds vs #insert txns)
//	Fig  6-5   BenchmarkFig65_RecoveryUpdates      (recovery seconds vs #historical segments)
//	Fig  6-6   BenchmarkFig66_PhaseDecomposition   (per-phase milliseconds)
//	Fig  6-7   BenchmarkFig67_FailureTimeline      (tps while crashing + recovering)
//
// cmd/harbor-bench runs the same experiments at larger scale with
// paper-style tabular output.
package harbor_test

import (
	"fmt"
	"testing"

	"harbor/internal/sim"
	"harbor/internal/testutil"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// BenchmarkTable42_ProtocolCosts verifies and reports the Table 4.2
// overhead profile: forced-writes by coordinator and per worker for one
// committed update transaction under each protocol.
func BenchmarkTable42_ProtocolCosts(b *testing.B) {
	cases := []struct {
		protocol txn.Protocol
		mode     worker.RecoveryMode
	}{
		{txn.TwoPC, worker.ARIES},
		{txn.OptTwoPC, worker.HARBOR},
		{txn.ThreePC, worker.ARIES},
		{txn.OptThreePC, worker.HARBOR},
	}
	desc := sim.BenchDesc()
	for _, c := range cases {
		b.Run(c.protocol.String(), func(b *testing.B) {
			cl, err := testutil.NewCluster(testutil.ClusterConfig{
				Workers: 2, Protocol: c.protocol, Mode: c.mode,
				GroupCommit: true, BaseDir: b.TempDir(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.CreateReplicatedTable(1, desc, 64); err != nil {
				b.Fatal(err)
			}
			cl.Coord.ResetCounters()
			for _, w := range cl.Workers {
				w.ResetCounters()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := cl.Coord.Begin()
				if err := tx.Insert(1, sim.BenchTuple(desc, int64(i))); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			want := c.protocol.ExpectedCost()
			coordFW := float64(cl.Coord.ForcedWrites()) / float64(b.N)
			var workerFW float64
			for _, w := range cl.Workers {
				workerFW += float64(w.ForcedWrites())
			}
			workerFW /= float64(2 * b.N)
			b.ReportMetric(coordFW, "coordFW/txn")
			b.ReportMetric(workerFW, "workerFW/txn")
			if int(coordFW+0.5) != want.CoordForcedWrites || int(workerFW+0.5) != want.WorkerForcedWrites {
				b.Fatalf("Table 4.2 mismatch: coord %.1f (want %d), worker %.1f (want %d)",
					coordFW, want.CoordForcedWrites, workerFW, want.WorkerForcedWrites)
			}
		})
	}
}

// BenchmarkFig62_CommitProtocols reports transactions/second for the six
// Figure 6-2 configurations at several concurrency levels.
func BenchmarkFig62_CommitProtocols(b *testing.B) {
	for _, cfg := range sim.StandardConfigs() {
		for _, conc := range []int{1, 5, 10} {
			b.Run(fmt.Sprintf("%s/conc=%d", cfg.Name, conc), func(b *testing.B) {
				perStream := 20
				var totalTPS float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunCommitBench(b.TempDir(), cfg, conc, perStream, 0)
					if err != nil {
						b.Fatal(err)
					}
					totalTPS += res.TPS
				}
				b.ReportMetric(totalTPS/float64(b.N), "tps")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig63_CPUWork reports tps with simulated per-transaction CPU
// work (Figure 6-3's x-axis, scaled).
func BenchmarkFig63_CPUWork(b *testing.B) {
	configs := sim.StandardConfigs()[:4] // the four protocols
	for _, cfg := range configs {
		for _, cycles := range []int64{0, 500_000, 2_000_000} {
			b.Run(fmt.Sprintf("%s/cycles=%d", cfg.Name, cycles), func(b *testing.B) {
				var totalTPS float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunCommitBench(b.TempDir(), cfg, 1, 10, cycles)
					if err != nil {
						b.Fatal(err)
					}
					totalTPS += res.TPS
				}
				b.ReportMetric(totalTPS/float64(b.N), "tps")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig64_RecoveryInserts reports recovery time as a function of the
// number of insert transactions since the crash, for all four scenarios.
func BenchmarkFig64_RecoveryInserts(b *testing.B) {
	scenarios := []sim.RecoveryScenario{
		sim.Aries1Table, sim.Harbor1Table,
		sim.Harbor2TablesSerial, sim.Harbor2TablesParallel,
	}
	for _, sc := range scenarios {
		for _, txns := range []int{50, 400} {
			b.Run(fmt.Sprintf("%s/txns=%d", sc, txns), func(b *testing.B) {
				var total float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunRecoveryBench(b.TempDir(), sim.RecoveryParams{
						Scenario:        sc,
						PreloadSegments: 8,
						SegPages:        16,
						InsertTxns:      txns,
					})
					if err != nil {
						b.Fatal(err)
					}
					total += res.RecoveryTime.Seconds() * 1000
				}
				b.ReportMetric(total/float64(b.N), "recovery-ms")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig65_RecoveryUpdates fixes the transaction count and varies the
// number of historical segments updated.
func BenchmarkFig65_RecoveryUpdates(b *testing.B) {
	scenarios := []sim.RecoveryScenario{sim.Aries1Table, sim.Harbor1Table}
	for _, sc := range scenarios {
		for _, segs := range []int{0, 4, 12} {
			b.Run(fmt.Sprintf("%s/histsegs=%d", sc, segs), func(b *testing.B) {
				var total float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunRecoveryBench(b.TempDir(), sim.RecoveryParams{
						Scenario:                 sc,
						PreloadSegments:          16,
						SegPages:                 16,
						InsertTxns:               200,
						HistoricalSegmentUpdates: segs,
					})
					if err != nil {
						b.Fatal(err)
					}
					total += res.RecoveryTime.Seconds() * 1000
				}
				b.ReportMetric(total/float64(b.N), "recovery-ms")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig66_PhaseDecomposition reports HARBOR recovery broken into its
// constituent phases.
func BenchmarkFig66_PhaseDecomposition(b *testing.B) {
	for _, segs := range []int{0, 8} {
		b.Run(fmt.Sprintf("histsegs=%d", segs), func(b *testing.B) {
			var p1, p2u, p2i, p3 float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunRecoveryBench(b.TempDir(), sim.RecoveryParams{
					Scenario:                 sim.Harbor1Table,
					PreloadSegments:          16,
					SegPages:                 16,
					InsertTxns:               200,
					HistoricalSegmentUpdates: segs,
				})
				if err != nil {
					b.Fatal(err)
				}
				p1 += res.Phase1.Seconds() * 1000
				p2u += res.Phase2Update.Seconds() * 1000
				p2i += res.Phase2Insert.Seconds() * 1000
				p3 += res.Phase3.Seconds() * 1000
			}
			n := float64(b.N)
			b.ReportMetric(p1/n, "phase1-ms")
			b.ReportMetric(p2u/n, "phase2upd-ms")
			b.ReportMetric(p2i/n, "phase2ins-ms")
			b.ReportMetric(p3/n, "phase3-ms")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkFig67_FailureTimeline runs the §6.5 experiment once per
// iteration and reports steady-state vs during-recovery throughput.
func BenchmarkFig67_FailureTimeline(b *testing.B) {
	var steady, degraded float64
	for i := 0; i < b.N; i++ {
		samples, err := sim.RunFailoverTimeline(b.TempDir(), sim.TimelineParams{})
		if err != nil {
			b.Fatal(err)
		}
		var preCrash, during float64
		var nPre, nDuring int
		phase := "steady"
		for _, s := range samples {
			switch s.Event {
			case "crash":
				phase = "down"
			case "recovery-start":
				phase = "recovering"
			case "online":
				phase = "steady"
			}
			switch phase {
			case "steady":
				preCrash += s.TPS
				nPre++
			case "recovering":
				during += s.TPS
				nDuring++
			}
		}
		if nPre > 0 {
			steady += preCrash / float64(nPre)
		}
		if nDuring > 0 {
			degraded += during / float64(nDuring)
		}
	}
	b.ReportMetric(steady/float64(b.N), "steady-tps")
	b.ReportMetric(degraded/float64(b.N), "recovering-tps")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkEndToEndInsert measures the full client→coordinator→replicas
// path for a single committed insert (latency baseline, tuple in Figure
// 6-2's no-concurrency point).
func BenchmarkEndToEndInsert(b *testing.B) {
	desc := sim.BenchDesc()
	for _, cfg := range []struct {
		name     string
		protocol txn.Protocol
		mode     worker.RecoveryMode
	}{
		{"optimized-3PC", txn.OptThreePC, worker.HARBOR},
		{"traditional-2PC", txn.TwoPC, worker.ARIES},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			cl, err := testutil.NewCluster(testutil.ClusterConfig{
				Workers: 2, Protocol: cfg.protocol, Mode: cfg.mode,
				GroupCommit: true, BaseDir: b.TempDir(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.CreateReplicatedTable(1, desc, 256); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := cl.Coord.Begin()
				if err := tx.Insert(1, sim.BenchTuple(desc, int64(i))); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGroupCommit isolates the group-commit mechanism at one
// concurrency level (the Figure 6-2 vertical slice at concurrency 10).
func BenchmarkAblationGroupCommit(b *testing.B) {
	for _, gc := range []bool{true, false} {
		name := "group-commit"
		if !gc {
			name = "serial-fsync"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sim.ProtoConfig{
				Name: name, Protocol: txn.TwoPC, Mode: worker.ARIES,
				GroupCommit: gc, Workers: 2,
			}
			var total float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunCommitBench(b.TempDir(), cfg, 10, 15, 0)
				if err != nil {
					b.Fatal(err)
				}
				total += res.TPS
			}
			b.ReportMetric(total/float64(b.N), "tps")
			b.ReportMetric(0, "ns/op")
		})
	}
}
