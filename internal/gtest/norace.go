//go:build !race

package gtest

// RaceEnabled reports whether the binary was built with -race. Allocation
// guards skip under it: the race detector drops sync.Pool items at random
// and instruments allocation.
const RaceEnabled = false
