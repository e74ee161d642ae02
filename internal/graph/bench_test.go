package graph

import (
	"math/rand"
	"testing"
)

// benchBatch is a serve-churn-sized batch: 16 additions between random
// vertices of g.
func benchBatch(g *Graph, seed int64) *Delta {
	rng := rand.New(rand.NewSource(seed))
	d := &Delta{}
	for i := 0; i < 16; i++ {
		u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
		d.AddWeightedEdge(VertexID(u), VertexID(v), 1+rng.Float64())
	}
	return d
}

var benchSink uint64

// BenchmarkApplyDelta applies one 16-mutation batch to a weighted R-MAT
// 16×8 graph (524 k arcs): the per-flush cost the serving path pays.
func BenchmarkApplyDelta(b *testing.B) {
	flat := WithRandomWeights(RMAT(16, 8, 0.57, 0.19, 0.19, true, 1), 1, 10, 2)
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"flat", flat}, {"compact", MustCompact(flat)}} {
		b.Run(c.name, func(b *testing.B) {
			d := benchBatch(c.g, 3)
			c.g.Fingerprint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ng, _, err := ApplyDelta(c.g, d)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += uint64(ng.NumArcs())
			}
		})
	}
}

// BenchmarkFingerprint times the digest from scratch (one pass over every
// arc) and on a graph ApplyDelta just produced (already derived from the
// source graph's digest).
func BenchmarkFingerprint(b *testing.B) {
	g := MustCompact(WithRandomWeights(RMAT(16, 8, 0.57, 0.19, 0.19, true, 1), 1, 10, 2))
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += scratchFingerprint(g)
		}
	})
	b.Run("after-ApplyDelta", func(b *testing.B) {
		d := benchBatch(g, 3)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ng, _, err := ApplyDelta(g, d)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			benchSink += ng.Fingerprint()
		}
	})
}
