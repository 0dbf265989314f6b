//go:build !race

package colarm

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
