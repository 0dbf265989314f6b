//go:build !race

package server

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
