//go:build race

package routing

// raceEnabled is true under -race; single-goroutine tables that gain
// nothing from the detector skip there.
const raceEnabled = true
