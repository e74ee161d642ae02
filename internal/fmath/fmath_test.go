package fmath

import (
	"math"
	"testing"
)

// TestMinMaxExactBits holds Min and Max to math.Min and math.Max bit for
// bit over every ordered pair of a set of edge values: signed zeros,
// infinities, the extreme normals and subnormals, and quiet and signalling
// NaNs of either sign with distinct payloads.
func TestMinMaxExactBits(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 2.5, -2.5,
		math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // the largest subnormal
		math.Float64frombits(0x0010_0000_0000_0000), // the smallest normal
		math.NaN(),
		math.Float64frombits(0x7ff8_0000_0000_0001), // quiet, payload 1
		math.Float64frombits(0xfff8_0000_0000_dead), // quiet, negative
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling, payload 1
		math.Float64frombits(0xfff4_0000_0000_beef), // signalling, negative
	}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := math.Float64bits(Min(x, y)), math.Float64bits(math.Min(x, y)); got != want {
				t.Errorf("Min(%#x, %#x) = %#x, math.Min gives %#x", math.Float64bits(x), math.Float64bits(y), got, want)
			}
			if got, want := math.Float64bits(Max(x, y)), math.Float64bits(math.Max(x, y)); got != want {
				t.Errorf("Max(%#x, %#x) = %#x, math.Max gives %#x", math.Float64bits(x), math.Float64bits(y), got, want)
			}
		}
	}
	// The two cases the fallback exists for.
	if !math.Signbit(Min(0, math.Copysign(0, -1))) || math.Signbit(Max(math.Copysign(0, -1), 0)) {
		t.Error("Min(+0, −0) must be −0 and Max(−0, +0) must be +0")
	}
	if got := Min(math.Inf(-1), math.NaN()); !math.IsInf(got, -1) {
		t.Errorf("Min(−Inf, NaN) = %v, math.Min gives −Inf", got)
	}
}
