package bounds_test

import (
	"fmt"

	"ubac/internal/bounds"
)

// The Table 1 scenario: the MCI backbone's voice bounds.
func ExampleBounds() {
	lower, upper, err := bounds.Bounds(bounds.Params{
		N:        6,     // input links per router
		L:        4,     // network diameter
		Burst:    640,   // bits
		Rate:     32e3,  // bits/second
		Deadline: 0.100, // seconds
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("alpha in [%.2f, %.2f]\n", lower, upper)
	// Output: alpha in [0.30, 0.61]
}
