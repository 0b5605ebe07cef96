package main

import "testing"

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-e", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// E3 is the fastest experiment (~20ms): a full end-to-end exercise of
	// flag parsing, selection and execution.
	if err := run([]string{"-e", "E3", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperimentList(t *testing.T) {
	if err := run([]string{"-e", "E3, E4"}); err != nil {
		t.Fatal(err)
	}
}
