//go:build race

package standing

// raceEnabled reports a -race build. Under the race detector some
// operations here allocate once more per call than without it, so the
// exact allocation pins skip there; make check runs them again without
// -race.
const raceEnabled = true
