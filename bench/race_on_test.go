//go:build race

package bench

// raceEnabled gates allocation bounds the race detector defeats: under it
// sync.Pool drops a quarter of what is Put, on purpose.
const raceEnabled = true
