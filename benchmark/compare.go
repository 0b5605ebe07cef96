package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's untraced values for one workload.
func (f *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Results {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartiles of xs over
// their median, the quartiles taken as Python's statistics.quantiles(xs,
// n=4) takes them (the driver's rule); 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	quartile := func(k int) float64 { // exclusive method: position k(n+1)/4, counted from 1
		pos := float64(k*(len(xs)+1))/4 - 1
		lo := min(max(int(pos), 0), len(xs)-2)
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return ratio(quartile(3)-quartile(1), quantile(xs, 0.5))
}

// compareFiles applies BENCHMARK.json's bounds to two result files, A the
// parent and B the change: one row per workload and end-to-end metric.
// worse: B's median is worse than A's by more than the bound. unresolved:
// the run-to-run spread on either side exceeds the bound, so the medians
// settle nothing — unless every run of B reads better than every run of A.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s %+v\nB: %s %+v\n", pathA, a.Env, pathB, b.Env)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := quantile(slices.Clone(va), 0.5), quantile(slices.Clone(vb), 0.5)
			change := ratio(mb-ma, ma)
			worsening, allBetter := change, slices.Max(vb) < slices.Min(va)
			if m.Better == "higher" {
				worsening, allBetter = -change, slices.Min(vb) > slices.Max(va)
			}
			sprd := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sprd > m.Bound && !allBetter:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*change, 100*sprd, 100*m.Bound, verdict)
		}
	}
	return anyWorse, nil
}
