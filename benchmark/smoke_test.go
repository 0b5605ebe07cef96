package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload once untraced and once traced on
// fiftieth-scale shapes (loopback cluster, replay and layer probes
// included), so tier-1 keeps the harness compiling and every metric named
// in BENCHMARK.json emitted exactly once.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		wl := findWorkload(w.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := runOnce(sp, wl, runOpts{seed: 3, seconds: 0.05, trace: trace, small: true, outDir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] missing or in unit %q", w.Name, trace, m.Name, m.Unit, got.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSpec holds BENCHMARK.json to the limits of the contract it is
// written to.
func TestSpec(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds plus set-up and checks
	// (about 6 s here), must fit the driver's 3420 s with room for two builds.
	if total := (4 + 22*len(sp.Workloads)) * (sp.RunSeconds + 6); total > 3000 {
		t.Errorf("the driver's runs would take about %d s", total)
	}
}

func TestCompare(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// statistics.quantiles(v, n=4) gives (Q3-Q1)/median = 0.12511 here.
	v := []float64{1.021, 0.738, 1.102, 1.143, 1.073, 1.128, 1.183, 0.997, 1.162, 1.152}
	if got := spread(v); got < 0.12510 || got > 0.12512 {
		t.Errorf("spread = %v, the driver's rule gives 0.12511", got)
	}
	write := func(name string, rates ...float64) string {
		var f resultFile
		for _, r := range rates {
			f.Results = append(f.Results, &result{Workload: "apps", Metrics: map[string]metric{"req_per_s": {Value: r, Unit: "1/s"}}})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 101, 99, 100)
	for _, c := range []struct {
		rates   []float64
		verdict string
		worse   bool
	}{
		{[]float64{100, 100, 101, 99}, "ok", false},
		{[]float64{60, 61, 59, 60}, "worse", true},
		{[]float64{40, 100, 160, 100}, "unresolved", false},
	} {
		var out strings.Builder
		worse, err := compareFiles(&out, sp, base, write("b.json", c.rates...))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("rates %v: worse=%v, want %v and verdict %q in:\n%s", c.rates, worse, c.worse, c.verdict, out.String())
		}
	}
}
