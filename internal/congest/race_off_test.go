//go:build !race

package congest

const raceEnabled = false
