//go:build race

package buffer

const raceEnabled = true
