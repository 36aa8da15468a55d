//go:build !race

package wire

// raceEnabled reports whether the race detector is instrumenting this
// build. Allocation counts only mean something uninstrumented.
const raceEnabled = false
