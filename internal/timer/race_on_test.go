//go:build race

package timer

// raceEnabled gates timing bounds the race detector's instrumentation
// makes meaningless.
const raceEnabled = true
