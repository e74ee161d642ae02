// Package fmath holds the float64 minimum and maximum every fold, combiner
// and lowered min/max of the repository uses: bit-identical to math.Min and
// math.Max, and small enough to inline, so the common case of two ordered
// operands never reaches the assembly call.
package fmath

import "math"

// Min is math.Min bit for bit: an ordered pair answers inline, and the rest
// (equal operands, where −0 beats +0, and NaNs) are math.Min's to decide.
func Min(x, y float64) float64 {
	if x < y {
		return x
	}
	if y < x {
		return y
	}
	return math.Min(x, y)
}

// Max is math.Max bit for bit, as Min is math.Min.
func Max(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}
