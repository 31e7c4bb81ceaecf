//go:build race

package operon_test

// raceEnabled reports whether the race detector is on; it changes what
// allocation counts measure.
const raceEnabled = true
