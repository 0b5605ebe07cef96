//go:build !race

package spanning

const raceEnabled = false
