//go:build race

package workload

// raceEnabled reports a build with the race detector, whose sync.Pool
// drops a random share of the values put back, so allocation counts vary
// from run to run.
const raceEnabled = true
