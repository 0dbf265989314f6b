//go:build race

package plans_test

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
