// Package experiments is the reproduction harness: one experiment per
// quantitative claim of the paper (`walkbench -list` prints the index;
// internal/congest/doc.go describes the simulator underneath). Each
// experiment generates its workload, runs the algorithms on
// the CONGEST simulator, and prints the table/series the claim is judged
// by.
//
// The same experiment bodies back cmd/walkbench and the root-level
// testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Scale selects the workload size. Small finishes in seconds per
// experiment and is the default everywhere; Medium/Large sharpen the
// asymptotic shapes at more cost.
type Scale int

// Scale values.
const (
	Small Scale = iota + 1
	Medium
	Large
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (want small|medium|large)", s)
}

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// pick returns the size for the current scale.
func (s Scale) pick(small, medium, large int) int {
	switch s {
	case Medium:
		return medium
	case Large:
		return large
	default:
		return small
	}
}

// Config parameterizes an experiment run.
type Config struct {
	Seed  uint64
	Scale Scale
	Out   io.Writer
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// Experiment is one reproducible claim.
type Experiment struct {
	ID    string
	Title string
	// Claim is the paper statement being reproduced.
	Claim string
	Run   func(cfg Config) error
}

var registry = []Experiment{
	e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12,
}

// All returns every registered experiment in ID order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return less(out[i].ID, out[j].ID) })
	return out
}

// less orders E1 < E2 < ... < E10 < E11 numerically.
func less(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// table renders aligned output rows.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table {
	return &table{headers: headers}
}

func (t *table) addRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range t.headers {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func header(cfg Config, e Experiment) {
	cfg.printf("== %s: %s (scale=%s, seed=%d)\n", e.ID, e.Title, cfg.Scale, cfg.Seed)
	cfg.printf("   claim: %s\n", e.Claim)
}

// Run executes e under cfg, printing the standard header first.
func Run(e Experiment, cfg Config) error {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.Scale == 0 {
		cfg.Scale = Small
	}
	header(cfg, e)
	return e.Run(cfg)
}
