//go:build race

package machine

// raceEnabled reports a race-detector build, whose instrumentation changes
// what allocates.
const raceEnabled = true
