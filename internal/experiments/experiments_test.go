package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(all))
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d is %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E7"); !ok {
		t.Fatal("E7 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"": Small, "small": Small, "medium": Medium, "large": Large} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Fatal("scale names wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("a", "b")
	tb.addRow(1, 2.5)
	tb.addRow("x", "y")
	var buf bytes.Buffer
	tb.print(&buf)
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "2.500") || !strings.Contains(out, "x") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
}

// TestAllExperimentsRun executes every experiment at small scale; this is
// the harness's own integration test.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take ~30s at small scale")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{Seed: 42, Scale: Small, Out: &buf}
			if err := Run(e, cfg); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}
