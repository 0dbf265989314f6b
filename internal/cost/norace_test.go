//go:build !race

package cost

// raceEnabled reports a build under the race detector.
const raceEnabled = false
