//go:build race

package cost

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
