package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one quantity. The zero value is empty;
// every summary of an empty sample is 0.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	pos := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.percentile(50) }

func (s sample) max() float64 {
	m := 0.0
	for i, v := range s {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// quartiles returns the cut points Python's statistics.quantiles(s, n=4)
// gives (its default "exclusive" method), which is what the benchmark driver
// measures spread with. It needs two samples; with fewer all three are the
// single value (or 0).
func (s sample) quartiles() (q1, q2, q3 float64) {
	c := s.sorted()
	n := len(c)
	if n < 2 {
		if n == 1 {
			return c[0], c[0], c[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the noise
// figure every bound in BENCHMARK.json is compared against.
func (s sample) spread() float64 {
	q1, q2, q3 := s.quartiles()
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentile names the highest of p90, p99 and p99.9 that still has at
// least ten samples beyond it, so a reported tail is never one outlier.
// With fewer than 100 samples no tail qualifies and ok is false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []struct {
		p        float64
		perMille int // share of samples beyond p
	}{{99.9, 1}, {99, 10}, {90, 100}} {
		if n*c.perMille >= 10*1000 {
			return c.p, true
		}
	}
	return 0, false
}
