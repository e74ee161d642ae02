//go:build !race

package serve

// raceEnabled reports whether the race detector is active; allocation
// regression tests skip under it because instrumentation perturbs counts.
const raceEnabled = false
