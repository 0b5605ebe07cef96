//go:build race

package spanning

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates on its own: the allocation gate skips.
const raceEnabled = true
