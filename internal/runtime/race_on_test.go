//go:build race

package runtime

// raceEnabled gates timing bounds the race detector's instrumentation
// makes meaningless.
const raceEnabled = true
