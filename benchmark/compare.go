package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series is one side's values of one (workload, metric): the median of each
// run in the file. A file with a single run falls back on that run's own
// in-run quartiles for its spread.
type series struct {
	vals     []float64
	p25, p75 float64 // in-run quartiles of the only run, when len(vals) == 1
}

func (s series) stats() (p25, med, p75 float64) {
	if len(s.vals) == 1 && s.p25 != 0 {
		return s.p25, s.vals[0], s.p75
	}
	return quartiles(s.vals)
}

func loadSeries(path string) (map[string]map[string]*series, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string]*series{}
	for _, r := range reps {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*series{}
		}
		for name, v := range r.Metrics {
			s := out[r.Workload][name]
			if s == nil {
				s = &series{}
				out[r.Workload][name] = s
			}
			s.vals = append(s.vals, v.Value)
			s.p25, s.p75 = v.P25, v.P75
		}
	}
	return out, nil
}

// verdict classifies after against before for one metric. A metric whose
// run-to-run spread on either side exceeds its bound cannot be told apart
// from noise at that bound: it is unresolved, not unchanged.
func verdict(d metricDecl, before, after series) (string, float64) {
	b25, bm, b75 := before.stats()
	a25, am, a75 := after.stats()
	if bm == 0 {
		return "unresolved", 0
	}
	r := am / bm
	spread := (b75 - b25) / bm
	if am != 0 && (a75-a25)/am > spread {
		spread = (a75 - a25) / am
	}
	worse, better := r-1, 1-r
	if d.Better == "higher" {
		worse, better = better, worse
	}
	switch {
	case spread > d.Bound:
		return "unresolved", r
	case worse > d.Bound:
		return "worse", r
	case better > d.Bound:
		return "better", r
	}
	return "same", r
}

// compareFiles prints one row per workload × end-to-end metric: both
// medians with their quartiles, the ratio with its base, and the verdict.
func compareFiles(w io.Writer, beforePath, afterPath string) error {
	before, err := loadSeries(beforePath)
	if err != nil {
		return err
	}
	after, err := loadSeries(afterPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "before = %s, after = %s; ratio = after ÷ before; bound = allowed worsening\n", beforePath, afterPath)
	fmt.Fprintf(w, "%-16s %-20s %-34s %-34s %8s %6s  %s\n", "workload", "metric",
		"before median [p25, p75] (runs)", "after median [p25, p75] (runs)", "ratio", "bound", "verdict")
	for _, wl := range workloadOrder {
		if before[wl] == nil || after[wl] == nil {
			continue
		}
		for _, d := range endToEndMetrics {
			bs, as := before[wl][d.Name], after[wl][d.Name]
			if bs == nil || as == nil {
				continue
			}
			v, r := verdict(d, *bs, *as)
			cell := func(s series) string {
				p25, med, p75 := s.stats()
				return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", med, p25, p75, len(s.vals))
			}
			fmt.Fprintf(w, "%-16s %-20s %-34s %-34s %8.4f %5.0f%%  %s (%s is better)\n",
				wl, d.Name, cell(*bs), cell(*as), r, d.Bound*100, v, d.Better)
		}
	}
	return nil
}

// spreadFile prints, per workload × end-to-end metric, the run-to-run
// spread of the runs stored in one -out file: the distance between the
// first and third quartile as a share of the median — the figure the
// metric's bound has to stay above — next to the bound.
func spreadFile(w io.Writer, path string) error {
	all, err := loadSeries(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-20s %5s %14s %14s %14s %9s %7s\n", "workload", "metric", "runs", "p25", "median", "p75", "spread", "bound")
	for _, wl := range workloadOrder {
		for _, d := range endToEndMetrics {
			s := all[wl][d.Name]
			if s == nil {
				continue
			}
			p25, med, p75 := quartiles(s.vals)
			fmt.Fprintf(w, "%-16s %-20s %5d %14.6g %14.6g %14.6g %8.2f%% %6.0f%%\n",
				wl, d.Name, len(s.vals), p25, med, p75, 100*ratio(p75-p25, med), 100*d.Bound)
		}
	}
	return nil
}
