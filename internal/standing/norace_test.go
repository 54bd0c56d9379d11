//go:build !race

package standing

const raceEnabled = false
