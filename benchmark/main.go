// Command benchmark is this repository's layered performance benchmark:
// seven workloads over the public Service API, end-to-end metrics measured
// with tracing off, and a separate traced run that attributes request time
// to the repo's layers (service, sched, cache, core, congest, wire, graph,
// spanning, mixing). BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains every workload and
// metric.
//
//	go run ./benchmark                         every workload, untraced then traced
//	go run ./benchmark -workload apps -seed 7  one untraced run, result as a last JSON line
//	go run ./benchmark -workload apps -trace 1 one traced run (per-layer metrics)
//	go run ./benchmark -list
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repository
// root under `go run ./benchmark`) or its parent (under `go test`).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// environment stamps a result file so rows are comparable across machines.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Best effort, without a subprocess: a driver's checkout is not a git
	// repository.
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		env.Commit = ref
	}
	return env
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (see -list); empty runs the whole suite")
		seed         = flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		runs         = flag.Int("runs", 1, "suite: untraced runs per workload, on seeds seed, seed+1, ...")
		out          = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json and the suite's result file")
		list         = flag.Bool("list", false, "list the workloads and exit")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	switch {
	case *list:
		for _, w := range sp.Workloads {
			fmt.Printf("%-14s %s\n", w.Name, w.Why)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workloadName != "":
		wl := findWorkload(*workloadName)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *workloadName))
		}
		fmt.Printf("env: %+v\n", readEnvironment())
		res, err := runOnce(sp, wl, runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *out, log: os.Stdout})
		if res != nil {
			// The contract's last line: exactly these four keys.
			line, _ := json.Marshal(struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}{res.Correct, res.Attempted, res.Failed, res.Metrics})
			fmt.Println(string(line))
		}
		if err != nil {
			fatal(err)
		}
	default:
		if err := runSuite(sp, *seed, *seconds, *runs, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runSuite is the one command that prints every metric: each workload
// untraced (runs times), then traced, and a result file for -compare.
func runSuite(sp *spec, seed uint64, seconds float64, runs int, outDir string) error {
	file := resultFile{Env: readEnvironment()}
	fmt.Printf("env: %+v\n", file.Env)
	var firstErr error
	for _, wl := range workloads {
		for i := 0; i < runs+1; i++ {
			o := runOpts{seed: seed + uint64(i), seconds: seconds, outDir: outDir, log: os.Stdout}
			if i == runs { // the traced run reuses the first seed
				o.seed, o.trace = seed, true
			}
			res, err := runOnce(sp, wl, o)
			if res != nil {
				file.Results = append(file.Results, res)
			}
			if err != nil {
				fmt.Printf("%s: %v\n", wl.name, err)
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", wl.name, err)
				}
			}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return firstErr
}

func printMetrics(w io.Writer, specs []metricSpec, m map[string]metric) {
	for _, s := range specs {
		if v, ok := m[s.Name]; ok {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", s.Name, v.Value, v.Unit)
		}
	}
}
