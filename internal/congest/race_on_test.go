//go:build race

package congest

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates: allocation-count assertions skip.
const raceEnabled = true
