//go:build race

package sched_test

// raceEnabled reports a race-detector build, whose instrumentation changes
// what allocates.
const raceEnabled = true
