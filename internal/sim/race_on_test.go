//go:build race

package sim

// raceEnabled reports a race-detector build, which runs the simulator
// an order of magnitude slower.
const raceEnabled = true
