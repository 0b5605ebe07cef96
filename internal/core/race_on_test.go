//go:build race

package core

// raceEnabled reports that this binary was built with -race, whose
// instrumentation slows single-goroutine tests most: they shorten.
const raceEnabled = true
