//go:build !race

package operon_test

const raceEnabled = false
