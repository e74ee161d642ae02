package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// sizes fixes every input dimension of the five workloads. fullSizes is what
// BENCHMARK.json's run_seconds was chosen for: ISSUE 12's sizes, with four
// departures that each buy samples, because a run is boxed at 20 s (README.md,
// "Sizes", has the measurements). converge-dense runs R-MAT scale 16 for 18
// and converge-sparse a 300-side grid for 400: at the issue's sizes a run
// holds some 22 ops, at these 80 and 35. serve-churn removes an addition in
// every 4th batch for every 8th, which doubles the fallback batches a run
// sees. shard2-dense runs R-MAT scale 16 for 17: 17 to 36 pairs of runs
// against 7 to 15.
// toySizes keeps the smoke test under a few seconds with every oracle on.
type sizes struct {
	DenseScale, DenseEdgeFactor int // converge-dense: directed R-MAT
	PageRankIters               int // what pagerank.dv stops at (i >= 30), for its oracle
	GridSide                    int // converge-sparse: weighted GridSide × GridSide grid
	ServeScale, ServeEdgeFactor int // serve-*: weighted directed R-MAT
	BatchAdds                   int // weighted arc additions per mutation batch
	RemoveEvery                 int // every RemoveEvery-th batch also removes one earlier addition
	RestartEpochs               int // serve-restart: batches in the chain the restart replays
	ShardScale, ShardEdgeFactor int // shard2-dense: directed R-MAT
	ShardIters                  int // shard2-dense: handwritten PageRank iterations
	Setups                      int // set-up is repeated at most this often; setup_s is the median
	MinOps                      int // timed ops of each kind a run makes even when --seconds is short
}

var fullSizes = sizes{
	DenseScale: 16, DenseEdgeFactor: 8, PageRankIters: 30,
	GridSide:   300,
	ServeScale: 16, ServeEdgeFactor: 8, BatchAdds: 16, RemoveEvery: 4, RestartEpochs: 32,
	ShardScale: 16, ShardEdgeFactor: 16, ShardIters: 20,
	Setups: 9, MinOps: 3,
}

var toySizes = sizes{
	DenseScale: 9, DenseEdgeFactor: 8, PageRankIters: 30,
	GridSide:   24,
	ServeScale: 9, ServeEdgeFactor: 8, BatchAdds: 16, RemoveEvery: 2, RestartEpochs: 8,
	ShardScale: 9, ShardEdgeFactor: 8, ShardIters: 5,
	Setups: 1, MinOps: 2,
}

// Thread budget: one. measure pins the process to a single P (procs), so at
// any moment one goroutine of the benchmark runs: engine workers, the
// serve-churn reader beside its mutator, both shards of shard2-dense and the
// collector all take turns on it. The box has two vCPUs, but the second is
// there only some of the time: with both in use (the first draft) the host
// took one away for minutes at a stretch and converge-sparse, whose 600
// barriers each wait on a cross-thread wake-up, read 330 ms in one run and
// 550 ms in the next; on one P it read 506.5, 509.3 and 509.8 ms in the same
// minutes (README.md, "Noise"). The worker counts stay what ISSUE 12 asked
// for, so partitioning, cross-worker exchange and the socket mesh do the
// same work; they just do it in turn.
const (
	procs           = 1
	convergeWorkers = 2
	serveWorkers    = 1
	shardWorkers    = 2 // total, across both shards
)

// subSeed derives an independent generator seed for one purpose from the
// run's --seed, so graph, weights, mutation stream and read keys never share
// a random sequence.
func subSeed(seed int64, purpose string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(purpose))
	return int64(h.Sum64() >> 1)
}

func rmat(scale, edgeFactor int, seed int64) *graph.Graph {
	return graph.RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, true, subSeed(seed, "rmat"))
}

func weightedRMAT(scale, edgeFactor int, seed int64) *graph.Graph {
	return graph.WithRandomWeights(rmat(scale, edgeFactor, seed), 1, 10, subSeed(seed, "weights"))
}

// weightedGrid draws edge weights from [1, 2]: narrow enough that shortest
// paths stay near-monotone, so every seed gives 2·side supersteps and nearly
// the same message count, and the frontier stays a thin diagonal band.
func weightedGrid(side int, seed int64) *graph.Graph {
	return graph.Grid(side, side, 2, subSeed(seed, "grid"))
}

// maxOutDegreeVertex is the SSSP source on R-MAT graphs: a well-connected
// vertex, so the cold converge reaches most of the graph.
func maxOutDegreeVertex(g *graph.Graph) graph.VertexID {
	best, bestDeg := graph.VertexID(0), -1
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.OutDegree(graph.VertexID(u)); d > bestDeg {
			best, bestDeg = graph.VertexID(u), d
		}
	}
	return best
}

// mutStream is the closed-loop mutator's deterministic batch sequence:
// batch i holds BatchAdds random weighted arc additions between distinct
// vertices (never the same pair twice), and every RemoveEvery-th batch also
// removes one addition made by an earlier batch. Additions take the server's
// in-place repair path; a removal retracts a possibly live min contribution,
// which SSSP cannot repair, so those batches fall back to a from-scratch run.
type mutStream struct {
	rng         *rand.Rand
	n           int
	adds, every int
	batches     int
	seen        map[[2]graph.VertexID]bool
	live        [][2]graph.VertexID // additions not yet removed
}

func newMutStream(seed int64, n int, sz sizes) *mutStream {
	return &mutStream{
		rng: rand.New(rand.NewSource(subSeed(seed, "mutations"))),
		n:   n, adds: sz.BatchAdds, every: sz.RemoveEvery,
		seen: make(map[[2]graph.VertexID]bool),
	}
}

func (m *mutStream) next() []graph.Mutation {
	m.batches++
	return m.batch(m.batches%m.every == 0)
}

// batch draws one batch, with or without a removal.
func (m *mutStream) batch(remove bool) []graph.Mutation {
	var d graph.Delta
	if remove && len(m.live) > 0 {
		i := m.rng.Intn(len(m.live))
		p := m.live[i]
		m.live[i] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		d.RemoveEdge(p[0], p[1])
	}
	for added := 0; added < m.adds; {
		u, v := graph.VertexID(m.rng.Intn(m.n)), graph.VertexID(m.rng.Intn(m.n))
		if u == v || m.seen[[2]graph.VertexID{u, v}] {
			continue
		}
		m.seen[[2]graph.VertexID{u, v}] = true
		m.live = append(m.live, [2]graph.VertexID{u, v})
		d.AddWeightedEdge(u, v, 1+9*m.rng.Float64())
		added++
	}
	return d.Muts
}

// readKeys is the closed-loop reader's deterministic request sequence:
// uniform vertex keys, one /neighbors read in every sixteen.
type readKeys struct {
	rng *rand.Rand
	n   int
	i   int
}

func newReadKeys(seed int64, n int) *readKeys {
	return &readKeys{rng: rand.New(rand.NewSource(subSeed(seed, "reads"))), n: n}
}

func (r *readKeys) next() (v int, neighbors bool) {
	r.i++
	return r.rng.Intn(r.n), r.i%16 == 0
}

// digestMutations and digestFloats fold inputs and outputs into 64 bits, for
// the same-seed/different-seed tests and the sharded-vs-in-process check.
func digestMutations(batches [][]graph.Mutation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, muts := range batches {
		put(uint64(len(muts)))
		for _, m := range muts {
			put(uint64(m.Op))
			put(uint64(m.U))
			put(uint64(m.V))
			put(math.Float64bits(m.W))
		}
	}
	return h.Sum64()
}

func digestFloats(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
