//go:build race

package ubac_test

// raceEnabled reports whether the race detector is instrumenting this
// test binary.
const raceEnabled = true
