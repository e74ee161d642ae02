package main

import "time"

// The reference clock. The host this benchmark runs on shares its memory
// system with other tenants, and for seconds to minutes at a time the same
// op, on the same inputs, takes 40-65 % more user time: no system time, no
// page faults, no steal in /proc/stat, an ALU loop beside it 5 % slower, a
// random read-modify-write walk over 64 MB 50 % slower (README.md, "Noise").
// A run of 20 s can sit wholly inside such a stretch, so no statistic of its
// raw samples repeats. Every timed sample is therefore taken between two
// readings of a fixed kernel that slows the way the program does, and is
// reported at the speed the kernel has on a quiet box:
//
//	reported = measured × refNominal ÷ mean(reading before, reading after)
//
// Three converge-sparse runs in a row with raw medians of 734, 521 and 662 ms
// read 508, 497 and 489 ms scaled.
//
// The kernel is frozen: changing refSteps, the table size or refNominal
// rescales every timing and cuts the history of the metrics in two.

// refTable is a package-level array so that it lives in the BSS: outside the
// Go heap, where it would be counted in live_heap_mb and would move the
// collector's pacing for the program under test.
var refTable [64 << 20]byte

const (
	refSteps = 200_000
	// refNominal is refKernel's time on this box (2 vCPUs of a Xeon @ 2.1 GHz)
	// with no neighbour in the way: the median of the fastest run seen.
	refNominal = 2750 * time.Microsecond
)

// refWarm faults the table in, so that no reading pays for page faults.
func refWarm() {
	for i := 0; i < len(refTable); i += 4096 {
		refTable[i] = 1
	}
	refKernel()
}

// refKernel walks the same refSteps pseudo-random cache lines of the table
// on every call, a read-modify-write each, like message delivery into vertex
// state. The lines (12.8 MB) fit no private cache, so the walk is served by
// the shared one or by memory, whichever the neighbours leave.
func refKernel() time.Duration {
	start := time.Now()
	x := uint64(2463534242)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refTable[x&(uint64(len(refTable))-1)]++
	}
	return time.Since(start)
}

// refScale runs f between two readings of the reference kernel and returns
// the factor that turns a time measured inside f into reference time.
func refScale(f func()) float64 {
	before := refKernel()
	f()
	after := refKernel()
	return float64(2*refNominal) / float64(before+after)
}
