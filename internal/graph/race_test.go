//go:build race

package graph

// raceEnabled reports whether the tests run under the race detector, which
// has sync.Pool drop items at random: an allocation pin there would count
// the pool's refills, not the code's.
const raceEnabled = true
