//go:build !race

package timer

const raceEnabled = false
