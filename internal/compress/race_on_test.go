//go:build race

package compress

// raceEnabled mirrors the -race flag: under the detector sync.Pool drops
// items at random, so a pooled path's allocation count means nothing.
const raceEnabled = true
