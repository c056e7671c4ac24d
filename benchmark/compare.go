package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
)

// cmdCompare prints one row per (workload, end-to-end metric) of two sides,
// A (the base) and B. A side is one result file of a full run, or several
// joined by commas; with at least three files a side has a spread (the
// distance between its quartiles over its median) and the row can be
// `unresolved`. It reports whether any row is `worse`.
func cmdCompare(args []string) (worse bool, err error) {
	if len(args) != 2 {
		return false, fmt.Errorf("usage: compare a.json[,a2.json,...] b.json[,b2.json,...]")
	}
	a, err := loadSide(args[0])
	if err != nil {
		return false, err
	}
	b, err := loadSide(args[1])
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA (base)\tB\t(B-A)/A\tbound\tspread A\tspread B\tverdict")
	for _, def := range workloads {
		for _, d := range comparedDefs() {
			va, vb := a[def.name][d.Name], b[def.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue // the metric does not apply to this workload
			}
			ma, mb := median(va), median(vb)
			rel := ratio(mb-ma, ma)
			verdict := "ok"
			switch {
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = "unresolved"
			case d.Better == "lower" && rel > d.Bound, d.Better == "higher" && rel < -d.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%% of %.6g\t%.0f%%\t%s\t%s\t%s\n",
				def.name, d.Name, ma, d.Unit, mb, d.Unit, rel*100, ma, d.Bound*100,
				spreadLabel(va), spreadLabel(vb), verdict)
		}
	}
	return worse, tw.Flush()
}

// loadSide reads the untraced reports of every file of one side into
// workload → metric → one value per file.
func loadSide(list string) (map[string]map[string][]float64, error) {
	side := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Reports {
			if r.Traced {
				continue // end-to-end metrics are measured with tracing off
			}
			if side[r.Workload] == nil {
				side[r.Workload] = map[string][]float64{}
			}
			for _, m := range r.Metrics {
				side[r.Workload][m.Name] = append(side[r.Workload][m.Name], m.Value)
			}
		}
	}
	return side, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (the driver's rule); 0 with fewer than three values, where it is
// unknown.
func spread(v []float64) float64 {
	if len(v) < 3 {
		return 0
	}
	s := samples(v).sorted()
	quartile := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return ratio(quartile(3)-quartile(1), s.quantile(0.5))
}

func spreadLabel(v []float64) string {
	if len(v) < 3 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%% of %.6g", spread(v)*100, median(v))
}
