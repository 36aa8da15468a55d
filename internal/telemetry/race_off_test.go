//go:build !race

package telemetry

// raceEnabled reports whether the race detector is instrumenting this
// build. Zero-allocation assertions only hold uninstrumented: -race
// adds bookkeeping allocations that say nothing about the ring.
const raceEnabled = false
