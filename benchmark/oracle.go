package main

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/graph"
)

// ssspOracle is Dijkstra with a binary heap. algorithms.SSSPOracle scans all
// vertices per step (quadratic), which the benchmark's graph sizes cannot
// afford; the unit test checks the two agree exactly on a small graph.
func ssspOracle(g *graph.Graph, source graph.VertexID) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	q := &distHeap{{source, 0}}
	for q.Len() > 0 {
		top := heap.Pop(q).(distEntry)
		if top.d > dist[top.v] {
			continue
		}
		it := g.OutArcs(top.v)
		for it.Next() {
			if d := top.d + it.Weight(); d < dist[it.To()] {
				dist[it.To()] = d
				heap.Push(q, distEntry{it.To(), d})
			}
		}
	}
	return dist
}

type distEntry struct {
	v graph.VertexID
	d float64
}

type distHeap []distEntry

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// sameBits fails unless got and want are bit-for-bit the same vector.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("vertex %d: got %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// within fails unless every got[i] is within tol of want[i].
func within(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); !(d <= tol) {
			return fmt.Errorf("vertex %d: got %v, want %v (off by %g > %g)", i, got[i], want[i], d, tol)
		}
	}
	return nil
}
