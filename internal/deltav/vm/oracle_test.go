package vm

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/pregel/transport"
	"repro/internal/programs"
)

// FuzzBitIdentity states the paper's correctness promise (§6–§7) once: an
// incrementalized program computes what the from-scratch program computes,
// whatever configuration runs it. Each case draws a program, a graph, a
// mutation batch and one point of workers × scheduler × combine ×
// quarantine × victims × closures × src × representation × shards × start,
// and holds the point to three layers:
//
//   - Configuration invariance. The point is bit-identical to the canonical
//     run — in-process, flat, uninterrupted, with the kernels on, and the
//     same program, mode, src, workers, scheduler, combine, victims and
//     start (cold or warm) — in every user field or engine value, every
//     aggregator, the per-phase iteration counts, Supersteps, MessagesSent,
//     CombinedMessages, CrossWorker, TotalActive, Quarantined and every
//     StepStats but its Duration. A point resumed at barrier k matches the
//     canonical Steps after k. A closures point runs every receive and send
//     on closures, and init on every vertex (no start template); cold, it
//     also matches the kernels and the template in every layout field,
//     every barrier's snapshot bytes, the statistics, the non-monotone count
//     and the error text.
//   - Incremental correctness. A warm canonical run of a compiled program
//     equals the from-scratch run on the mutated graph: bit for bit where
//     the folds are exact (ε = 0, and one worker or no sum or product),
//     within 1e-9 elsewhere. A batch the repair matrix rules out
//     statically is refused, and a refusal says why.
//   - Agreement (cold points). The canonical run matches its sequential
//     reference where one exists — PageRank, Dijkstra, connected
//     components, HITS, the product program; handwritten baselines
//     included — bit for bit where the folds are exact, within 1e-9
//     elsewhere. A compiled program computes what one worker computes on
//     the scan scheduler without combining: bit for bit and in as many
//     messages where the folds are exact, within 1e-9 for the corpus. A
//     combining run delivers no more envelopes than it sent. A ΔV or
//     memo-table run computes what ΔV★ computes within 1e-9, and ΔV sends
//     no more messages: exactly as many for SSSP and CC, fewer for
//     PageRank (agree states where HITS and combining must save too). A
//     program whose min or max Δs go non-monotone is exempt from the ΔV★
//     comparison; the fixed slice fails if over half its random points
//     are.
//
// The seed corpus is the fixed slice tier-1 runs (bitIdentitySeeds, one
// subtest per seed named after its point); -fuzz draws the rest.
func FuzzBitIdentity(f *testing.F) {
	seeds := bitIdentitySeeds()
	requireKernelVariants(f, seeds)
	randPoints := 0
	for _, p := range seeds {
		f.Add(p.encode())
		if p.fam == famRandom && p.start == startCold && allModes[p.mode] != core.Baseline {
			randPoints++
		}
	}
	randExempt.compared.Store(0)
	randExempt.skipped.Store(0)
	f.Cleanup(func() {
		c, s := randExempt.compared.Load(), randExempt.skipped.Load()
		if c+s >= int64(randPoints) && 2*s > c+s {
			f.Errorf("layer 3 exempted %d of %d random programs for a non-monotone min or max", s, c+s)
		}
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		p := decodePoint(b)
		t.Run(p.String(), p.check)
	})
}

// randExempt counts the random-program points layer 3 compared with ΔV★
// and those it exempted.
var randExempt struct{ compared, skipped atomic.Int64 }

// family is the kind of program a point runs.
type family uint8

const (
	famCorpus family = iota // a corpus ΔV program (or a fixpoint variant) in a mode
	famRandom               // randProgram, seeded by the point's prog byte
	famHand                 // an algorithms handwritten baseline
	famMass                 // massProgram on the engine's public API
	numFamilies
)

// repr is a graph representation.
type repr uint8

const (
	reprFlat repr = iota
	reprCompact
	reprMmap
	numReprs
)

var reprNames = [numReprs]string{"flat", "compact", "mmap"}

// startKind is how a point's run begins.
type startKind uint8

const (
	startCold   startKind = iota
	startTip              // Continue from the chain tip of a run stopped at barrier at
	startRecord           // Continue from record at of an uninterrupted run's chain
	startWarm             // Warm / RunDelta from a converged run, after the batch
	numStarts
)

var startNames = [numStarts]string{"cold", "resume-tip", "resume-record", "warm"}

// atAll resumes from every barrier in turn.
const atAll = 255

// srcKind is the src parameter of a corpus program that has one: vertex
// 0, a vertex at an edge of the worker blocks, or a value no vertex id
// equals (the start template's exceptions, core.Program.Start). A worker
// count does not move it: ⌈n/2⌉ starts worker 1's block of two and worker
// 2's of four when 4 divides n, and ⌈n/3⌉ worker 1's of three.
type srcKind uint8

const (
	srcZero    srcKind = iota
	srcThird           // ⌈n/3⌉
	srcHalf            // ⌈n/2⌉
	srcHalfEnd         // ⌈n/2⌉ − 1
	srcLast            // n − 1
	srcPast            // n: no vertex
	srcFrac            // 1.5: no vertex
	srcNegZero         // −0, which equals vertex 0
	numSrcs
)

var srcNames = [numSrcs]string{"", "src-third", "src-half", "src-half-end", "src-last", "src-past", "src-frac", "src-negzero"}

// srcValue is the point's src on g.
func (p point) srcValue(g *graph.Graph) float64 {
	n := g.NumVertices()
	return [numSrcs]float64{0, float64((n + 2) / 3), float64((n + 1) / 2), float64((n+1)/2 - 1), float64(n - 1), float64(n), 1.5, math.Copysign(0, -1)}[p.src]
}

// vmSource is a compiled program famCorpus draws, with the ε it runs at.
type vmSource struct {
	name, src string
	eps       float64
}

// vmSources is the corpus; PageRank with until{fixpoint} (the corpus one
// is iteration-bounded, which no delta run accepts); then programs whose
// sends reach the kernel branches the corpus does not: each shape x ± w,
// w ± x of a per-arc slot, under min, max and sum sites; and one whose
// init writes a field on the start template's path only.
var vmSources = func() []vmSource {
	var out []vmSource
	for _, n := range programs.Names() {
		out = append(out, vmSource{n, programs.MustSource(n), 0})
	}
	return append(out, vmSource{"pagerank-fixpoint", prFieldSrc, 1e-9},
		vmSource{"min-x-w", `init { local d : float = if id == 0 then 0.0 else infty };
iter k { let m : float = min [ u.d - ew | u <- #in ] in d = min d m } until { k >= 6 }`, 0},
		vmSource{"max-w-x", `init { local r : float = if id == 0 then 1.0 else 0.0 };
iter k { let m : float = max [ ew - u.r | u <- #in ] in r = max r m } until { k >= 6 }`, 0},
		vmSource{"max-x-w", `init { local r : float = 1.0 * id };
iter k { let m : float = max [ u.r + ew | u <- #in ] in r = max r (m * 0.5) } until { k >= 6 }`, 0},
		vmSource{"sum-w-x", `init { local x : float = 1.0 + 1.0 * id / graphSize };
iter k { let s : float = + [ ew + u.x | u <- #in ] in x = 0.25 * s / graphSize } until { k >= 5 }`, 0},
		vmSource{"sum-w-minus-x", `init { local x : float = 1.0 + 1.0 * id / graphSize };
iter k { let s : float = + [ ew - u.x | u <- #in ] in x = 0.5 + 0.25 * s / graphSize } until { k >= 5 }`, 0},
		// The start template sets e, which the source's init never writes.
		vmSource{"src-local", `param src : int = 0;
init { local d : float = infty; if id != src then { local e : float = 2.0 } else { d = 0.0 } };
iter k { let m : float = min [ u.d + 1.0 | u <- #in ] in d = min d m } until { fixpoint }`, 0})
}()

// handNames are the algorithms baselines famHand draws.
var handNames = []string{"pagerank", "sssp", "cc", "hits"}

// oracleGraph is a graph a point draws. A directed graph's undirected twin,
// which a #neighbors program runs on instead, is named with a "u" suffix.
type oracleGraph struct {
	name     string
	directed bool
	build    func() *graph.Graph
}

// oracleGraphs are the fixed graphs, then rnd0…rnd127: seeded small random
// weighted digraphs, which a graph byte of 128 or more names.
var oracleGraphs = func() []oracleGraph {
	gs := []oracleGraph{
		{"rmat8", true, func() *graph.Graph { return graph.RMAT(8, 4, 0.57, 0.19, 0.19, true, 42) }},
		{"rmat8u", false, func() *graph.Graph { return graph.RMAT(8, 4, 0.57, 0.19, 0.19, false, 42) }},
		{"grid", false, func() *graph.Graph { return graph.Grid(12, 15, 9, 3) }},
		{"ba", false, func() *graph.Graph { return graph.PreferentialAttachment(150, 2, 5) }},
		{"chain", true, func() *graph.Graph { return weightedChain(80) }},
		{"rmat9w", true, func() *graph.Graph {
			return graph.WithRandomWeights(graph.RMAT(9, 6, 0.57, 0.19, 0.19, true, 21), 1, 10, 5)
		}},
		{"ba500", false, func() *graph.Graph { return graph.PreferentialAttachment(500, 3, 7) }},
		{"ws400", false, func() *graph.Graph {
			return graph.WithRandomWeights(graph.WattsStrogatz(400, 6, 0.05, 11), 1, 5, 12)
		}},
		{"cycle60", false, func() *graph.Graph { return agreementGraph("cc") }},
		{"rmat6b", true, func() *graph.Graph { return graph.RMAT(6, 3, 0.5, 0.2, 0.2, true, 13) }},
		{"rmat7", true, func() *graph.Graph { return graph.RMAT(7, 5, 0.57, 0.19, 0.19, true, 9) }},
		{"ba300", false, func() *graph.Graph { return graph.PreferentialAttachment(300, 2, 5) }},
		{"dag5", true, func() *graph.Graph { return arcGraph(5, true, [][3]float64{{0, 1, 2}, {1, 2, 3}, {0, 2, 10}}) }},
		{"weak5", true, func() *graph.Graph { return arcGraph(5, true, [][3]float64{{1, 0, 1}, {1, 2, 1}, {4, 3, 1}}) }},
		{"prod6", true, func() *graph.Graph {
			return arcGraph(6, true, [][3]float64{{0, 2, 1}, {1, 2, 1}, {0, 3, 1}, {3, 4, 1}, {1, 5, 1}})
		}},
		{"multi10", false, func() *graph.Graph { return arcGraph(10, false, [][3]float64{{0, 1, 1}, {1, 2, 1}, {5, 6, 1}}) }},
		{"paths4", true, func() *graph.Graph { return arcGraph(4, true, [][3]float64{{0, 1, 1}, {2, 3, 1}}) }},
	}
	for i := range 30 { // rndu0…rndu29: small random undirected graphs
		gs = append(gs, oracleGraph{"rndu" + strconv.Itoa(i), false, func() *graph.Graph {
			return randGraph(rand.New(rand.NewSource(7919*int64(i)+2)), false)
		}})
	}
	for _, u := range []string{"", "u"} {
		for i, name := range []string{"mg40", "rmat6", "ninf40", "pinf40", "nan40"} {
			gs = append(gs, oracleGraph{name + u, u == "", func() *graph.Graph { return kernelGraph(u == "u", i) }})
		}
	}
	for i := range rndGraphs {
		gs = append(gs, oracleGraph{"rnd" + strconv.Itoa(i), true, func() *graph.Graph {
			return randGraph(rand.New(rand.NewSource(7919*int64(i)+1)), true)
		}})
	}
	return gs
}()

// rndGraphs is how many rnd graphs end oracleGraphs; fixedGraphs is how
// many graphs precede them.
const rndGraphs = 128

var fixedGraphs = len(oracleGraphs) - rndGraphs

// arcGraph is a hand-drawn graph of n vertices and arcs {u, v, weight}.
func arcGraph(n int, directed bool, arcs [][3]float64) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	for _, a := range arcs {
		b.AddWeightedEdge(graph.VertexID(a[0]), graph.VertexID(a[1]), a[2])
	}
	return b.Finalize()
}

// kernelGraph is digestGraphs' graph i, or for i = 2, 3, 4 a seeded
// weighted multigraph whose every fifth arc weighs −∞, +∞ or NaN.
func kernelGraph(undirected bool, i int) *graph.Graph {
	if i < 2 {
		return digestGraphs(undirected)[i]
	}
	rng := rand.New(rand.NewSource(29))
	const n = 40
	b := graph.NewBuilder(n, !undirected)
	for j := 0; j < 3*n; j++ {
		wt := 0.5 + 2*rng.Float64()
		if j%5 == 0 {
			wt = []float64{math.Inf(-1), math.Inf(1), math.NaN()}[i-2]
		}
		b.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), wt)
	}
	g := b.Finalize()
	if !undirected {
		g.BuildReverse()
	}
	return g
}

// point is one draw: a program, a graph, a mutation batch (ops, in
// decodeFuzzDelta's form; warm starts only) and a configuration.
type point struct {
	fam                               family
	prog, mode, graph                 uint8
	workers, shards                   uint8
	queue, combine, quarantine, xrepr bool
	closures, victims                 bool
	src                               srcKind
	repr                              repr
	start                             startKind
	at                                uint8
	ops                               []byte
}

const pointHeader = 11

func (p point) encode() []byte {
	flags := 0
	for i, b := range []bool{p.queue, p.combine, p.quarantine, p.xrepr, p.closures, p.victims} {
		if b {
			flags |= 1 << i
		}
	}
	g := p.graph
	if int(g) >= fixedGraphs {
		g += 128 - uint8(fixedGraphs)
	}
	h := []byte{byte(p.fam), p.prog, p.mode, g, p.workers - 1, p.shards - 1, byte(flags), byte(p.repr), byte(p.start), p.at, byte(p.src)}
	return append(h, p.ops...)
}

// decodePoint maps any bytes to a runnable point: every field is reduced
// into its range, and combinations a family cannot run are folded onto
// ones it can, so the name always states what runs.
func decodePoint(b []byte) point {
	h := make([]byte, pointHeader)
	copy(h, b)
	p := point{
		fam: family(h[0] % byte(numFamilies)), prog: h[1], mode: h[2] % byte(len(allModes)),
		graph:   h[3] % uint8(fixedGraphs),
		workers: 1 + h[4]%7, shards: 1 + h[5]%3,
		queue: h[6]&1 != 0, combine: h[6]&2 != 0, quarantine: h[6]&4 != 0, xrepr: h[6]&8 != 0,
		closures: h[6]&16 != 0, victims: h[6]&32 != 0,
		repr: repr(h[7] % byte(numReprs)), start: startKind(h[8] % byte(numStarts)), at: h[9],
		src: srcKind(h[10] % byte(numSrcs)),
	}
	if h[3] >= 128 {
		p.graph = uint8(fixedGraphs) + h[3] - 128
	}
	p.shards = min(p.shards, p.workers)
	if p.at != atAll {
		p.at %= 16
	}
	if p.fam != famCorpus && p.fam != famRandom {
		p.closures = false // the kernels are the compiled programs'
	}
	switch p.fam {
	case famCorpus:
		p.prog %= byte(len(vmSources))
		if g := oracleGraphs[p.graph]; g.directed && usesNeighbors(vmSources[p.prog].src) {
			// #neighbors needs an undirected graph: the twin, else rmat8u.
			p.graph = uint8(max(1, slices.IndexFunc(oracleGraphs, func(o oracleGraph) bool { return o.name == g.name+"u" })))
		}
	case famRandom:
		if p.start == startWarm {
			p.start = startCold // until{k >= n}: no delta run accepts it
		}
	case famHand: // RunOptions has no superstep limit or quarantine, and no repair
		p.prog %= byte(len(handNames))
		p.mode, p.quarantine = 0, false
		p.start = [numStarts]startKind{startCold, startRecord, startRecord, startCold}[p.start]
	case famMass:
		p.prog, p.mode = 0, 0
		p.quarantine = p.quarantine || p.victims // a victim panics; only quarantine contains it
	}
	if p.fam != famCorpus || !strings.Contains(vmSources[p.prog].src, "param src") {
		p.src = srcZero
	}
	// A resumed run counts only its own quarantines, which no StepStats
	// records, so victims start cold or warm.
	p.victims = p.victims && p.fam == famMass && (p.start == startCold || p.start == startWarm)
	if p.start == startCold || p.start == startTip {
		p.xrepr = false
	}
	if p.start == startCold || p.start == startWarm {
		p.at = 0
	}
	if p.start == startWarm {
		p.ops = append([]byte(nil), b[min(len(b), pointHeader):min(len(b), pointHeader+24)]...)
	}
	return p
}

func (p point) progName() string {
	switch p.fam {
	case famCorpus:
		return vmSources[p.prog].name
	case famRandom:
		return "rand" + strconv.Itoa(int(p.prog))
	case famHand:
		return handNames[p.prog]
	}
	return "mass"
}

func (p point) modeName() string {
	switch p.fam {
	case famHand:
		return "handwritten"
	case famMass:
		return "pregel"
	}
	return allModes[p.mode].String()
}

// flagNames are the optional name parts between the scheduler and the
// representation, in order.
var flagNames = []string{"combine", "quarantine", "victims", "closures"}

func (p *point) flags() []*bool { return []*bool{&p.combine, &p.quarantine, &p.victims, &p.closures} }

// String names the point: program/mode/graph/wW/scheduler[/combine]
// [/quarantine][/victims][/closures][/src-…]/repr/shardsS/start, the form
// parsePoint reads back.
func (p point) String() string {
	parts := []string{p.progName(), p.modeName(), oracleGraphs[p.graph].name, "w" + strconv.Itoa(int(p.workers)), "scan"}
	if p.queue {
		parts[4] = "queue"
	}
	for i, on := range p.flags() {
		if *on {
			parts = append(parts, flagNames[i])
		}
	}
	if p.src != srcZero {
		parts = append(parts, srcNames[p.src])
	}
	start := startNames[p.start]
	if p.xrepr {
		start += "-xrepr"
	}
	switch {
	case p.start != startTip && p.start != startRecord:
	case p.at == atAll:
		start += "@all"
	default:
		start += "@" + strconv.Itoa(int(p.at))
	}
	return strings.Join(append(parts, reprNames[p.repr], "shards"+strconv.Itoa(int(p.shards)), start), "/")
}

// parsePoint reads a point's name back, with ops as its mutation batch.
// It panics on a name String would not print.
func parsePoint(name string, ops ...[]byte) point {
	f := strings.Split(name, "/")
	p := point{ops: slices.Concat(ops...)}
	switch {
	case f[1] == "handwritten":
		p.fam, p.prog = famHand, uint8(slices.Index(handNames, f[0]))
	case f[1] == "pregel":
		p.fam = famMass
	case strings.HasPrefix(f[0], "rand"):
		n, _ := strconv.Atoi(f[0][4:])
		p.fam, p.prog = famRandom, uint8(n)
	default:
		p.fam = famCorpus
		p.prog = uint8(slices.IndexFunc(vmSources, func(s vmSource) bool { return s.name == f[0] }))
	}
	if p.fam == famCorpus || p.fam == famRandom {
		p.mode = uint8(slices.IndexFunc(allModes, func(m core.Mode) bool { return m.String() == f[1] }))
	}
	p.graph = uint8(slices.IndexFunc(oracleGraphs, func(g oracleGraph) bool { return g.name == f[2] }))
	w, _ := strconv.Atoi(strings.TrimPrefix(f[3], "w"))
	p.workers, p.queue = uint8(w), f[4] == "queue"
	rest := f[5:]
	for i, on := range p.flags() {
		if rest[0] == flagNames[i] {
			*on, rest = true, rest[1:]
		}
	}
	if i := slices.Index(srcNames[:], rest[0]); i > 0 {
		p.src, rest = srcKind(i), rest[1:]
	}
	p.repr = repr(slices.Index(reprNames[:], rest[0]))
	s, _ := strconv.Atoi(strings.TrimPrefix(rest[1], "shards"))
	p.shards = uint8(s)
	start, at, _ := strings.Cut(rest[2], "@")
	start, p.xrepr = strings.CutSuffix(start, "-xrepr")
	p.start = startKind(slices.Index(startNames[:], start))
	if at == "all" {
		p.at = atAll
	} else if at != "" {
		n, _ := strconv.Atoi(at)
		p.at = uint8(n)
	}
	if got := decodePoint(p.encode()).String(); got != name || p.prog == 255 || p.graph == 255 || p.mode == 255 {
		panic(fmt.Sprintf("seed %q does not name a point (it decodes to %q)", name, got))
	}
	return p
}

// addArc, removeArc, setWeight and addVertex are one mutation in
// decodeFuzzDelta's four-byte form; w is a multiple of 0.25 in [0.25, 4].
func addArc(u, v int, w float64) []byte { return []byte{0, byte(u), byte(v), byte(w/0.25 - 1)} }
func removeArc(u, v int) []byte         { return []byte{1, byte(u), byte(v), 0} }
func setWeight(u, v int, w float64) []byte {
	return []byte{2, byte(u), byte(v), byte(w/0.25 - 1)}
}
func addVertex() []byte { return []byte{3, 0, 0, 0} }

// decodeFuzzDelta turns fuzz bytes into a bounded mutation log: groups of
// four bytes (op, u, v, w). Endpoints are left unreduced in one of every
// eight groups so out-of-range handling stays covered.
func decodeFuzzDelta(ops []byte, n int) *graph.Delta {
	d := &graph.Delta{}
	for i := 0; i+3 < len(ops) && d.Len() < 6; i += 4 {
		kind, bu, bv, bw := ops[i], ops[i+1], ops[i+2], ops[i+3]
		u, v := graph.VertexID(int(bu)%n), graph.VertexID(int(bv)%n)
		if bu%8 == 7 {
			u = graph.VertexID(bu) // deliberately possibly out of range
		}
		w := 0.25 * float64(1+bw%16)
		switch kind % 4 {
		case 0:
			d.AddWeightedEdge(u, v, w)
		case 1:
			d.RemoveEdge(u, v)
		case 2:
			d.SetWeight(u, v, w)
		case 3:
			d.AddVertices(1 + int(kind/4)%3)
		}
	}
	return d
}

// mustReject reports whether the repairability matrix forbids accepting
// the applied delta without looking at any values: a program-wide blocker,
// new vertices under a non-repairable vertex-add verdict, or a structural
// arc change whose class verdict is statically unrepairable. (Reweights are classified by comparing old and
// new weight; their conditional verdicts are value-dependent, so only
// blockers make them mandatory rejections.)
func mustReject(rp *core.RepairProfile, ad *graph.AppliedDelta) bool {
	if rp.Blocked() != nil {
		return true
	}
	if ad.NewVertices > 0 && rp.Verdict(core.DeltaVertexAdd).Cap != core.Repairable {
		return true
	}
	static := func(c core.DeltaClass) bool {
		v := rp.Verdict(c)
		return v.Cap == core.Unsupported || (v.Cap == core.FallbackRequired && v.Unconditional)
	}
	for _, a := range ad.Arcs {
		switch a.Kind {
		case graph.ArcAdd:
			if static(core.DeltaArcAdd) {
				return true
			}
		case graph.ArcRemove:
			if static(core.DeltaArcRemove) {
				return true
			}
		}
	}
	return false
}

// runOpts is one execution of a subject: the point's options plus the
// seed a resumed or warm run starts from.
type runOpts struct {
	workers                       int
	sched                         pregel.Scheduler
	combine, quarantine, closures bool
	maxSteps                      int
	ckpt                          pregel.CheckpointOptions
	shard                         *pregel.ShardOptions
	resume                        *pregel.Snapshot    // Continue from this barrier
	warm                          *pregel.Snapshot    // warm start from this terminal snapshot,
	changes                       *graph.AppliedDelta // after these changes
}

// outcome is what bit identity covers of one run.
type outcome struct {
	vals     []uint64 // every user field or engine value, as bits
	fields   []uint64 // a compiled program's every layout field, user fields first
	aggs     []uint64
	iters    []int
	nonMono  int64
	stats    *pregel.Stats
	terminal func() *pregel.Snapshot // the finished run's terminal snapshot
}

// subject is a drawn program: run executes it once over g. prog is set
// for compiled programs, which the incremental layer holds to the repair
// matrix.
type subject struct {
	run  func(g *graph.Graph, o runOpts) (*outcome, error)
	prog *core.Program
}

// compile compiles a corpus or random point's program.
func (p point) compile() (*core.Program, error) {
	src, eps := randProgram(rand.New(rand.NewSource(int64(p.prog)))), 0.0
	if p.fam == famCorpus {
		src, eps = vmSources[p.prog].src, vmSources[p.prog].eps
	}
	return core.Compile(src, core.Options{Mode: allModes[p.mode], Epsilon: eps})
}

func (p point) subject(t *testing.T) subject {
	switch p.fam {
	case famHand:
		return handSubject(handNames[p.prog])
	case famMass:
		return massSubject(p.victims)
	}
	prog, err := p.compile()
	if err != nil {
		t.Fatalf("compile %s: %v", p.progName(), err)
	}
	return subject{prog: prog, run: func(g *graph.Graph, o runOpts) (*outcome, error) {
		ro := RunOptions{
			Workers: o.workers, Scheduler: o.sched, Combine: o.combine, Quarantine: o.quarantine,
			MaxSupersteps: o.maxSteps, Checkpoint: o.ckpt, Shard: o.shard, closures: o.closures,
		}
		if _, ok := paramIndex(prog, "src"); ok {
			ro.Params = map[string]float64{"src": p.srcValue(g)}
		}
		var res *Result
		var err error
		switch {
		case o.warm != nil:
			res, err = RunDelta(prog, g, DeltaRunOptions{RunOptions: ro, Snapshot: o.warm, Changes: o.changes})
		case o.resume != nil:
			res, err = ResumeContext(context.Background(), prog, g, ro, o.resume)
		default:
			res, err = Run(prog, g, ro)
		}
		if res == nil {
			return nil, err
		}
		fields, user := fieldBits(prog, res)
		return &outcome{vals: fields[:user], fields: fields, iters: res.Iterations, nonMono: res.NonMonotoneSends,
			stats: res.Stats, terminal: res.Snapshot}, err
	}}
}

// handSubject runs an algorithms baseline.
func handSubject(name string) subject {
	return subject{run: func(g *graph.Graph, o runOpts) (*outcome, error) {
		ro := algorithms.RunOptions{Workers: o.workers, Scheduler: o.sched, Combine: o.combine, Checkpoint: o.ckpt, Shard: o.shard}
		if o.resume != nil {
			ro.Seed = pregel.Continue(o.resume)
		}
		switch name {
		case "pagerank":
			return engineOutcome(algorithms.RunPageRank(g, 30, ro))
		case "sssp":
			return engineOutcome(algorithms.RunSSSP(g, 0, ro))
		case "cc":
			return engineOutcome(algorithms.RunCC(g, ro))
		}
		return engineOutcome(algorithms.RunHITS(g, 7, ro))
	}}
}

// engineOutcome is an engine run's outcome: its values' bytes, eight at a
// time, and its statistics.
func engineOutcome[V, M any](e *pregel.Engine[V, M], st *pregel.Stats, err error) (*outcome, error) {
	c, cerr := pregel.PODCodec[V]()
	if cerr != nil {
		panic(cerr) // every state the oracle runs is plain old data
	}
	var b []byte
	for _, v := range e.Values() {
		b = c.AppendValue(b, v)
	}
	out := &outcome{stats: st}
	for ; len(b) >= 8; b = b[8:] {
		out.vals = append(out.vals, binary.LittleEndian.Uint64(b))
	}
	return out, err
}

// massVal and massProgram are a sum-aggregator program on the engine's
// public API: weighted mass spreads for massRounds supersteps, and every
// vertex folds its score into the "mass" aggregator each superstep, so a
// fold-order divergence shows as a bit difference in values or aggregate.
// Each victim spreads its mass and then panics at its own superstep.
type massVal struct{ Score float64 }

type massProgram struct{ victims map[graph.VertexID]int }

const massRounds = 5

func (m massProgram) Init(ctx *pregel.Context[massVal, float64]) {
	ctx.Value().Score = 1 + float64(ctx.ID()%7)*0.125
	ctx.Aggregate(0, ctx.Value().Score)
	massSpread(ctx)
	m.poison(ctx)
}

func (m massProgram) Compute(ctx *pregel.Context[massVal, float64], msgs []float64) {
	sum := 0.0
	for _, x := range msgs {
		sum += x
	}
	ctx.Value().Score = 0.2*ctx.Value().Score + 0.8*sum
	ctx.Aggregate(0, ctx.Value().Score)
	if ctx.Superstep() < massRounds {
		massSpread(ctx)
	} else {
		ctx.VoteToHalt()
	}
	m.poison(ctx)
}

func massSpread(ctx *pregel.Context[massVal, float64]) {
	if d := ctx.OutDegree(); d > 0 {
		ctx.BroadcastOut(ctx.Value().Score / float64(d))
	}
}

func (m massProgram) poison(ctx *pregel.Context[massVal, float64]) {
	if step, ok := m.victims[ctx.ID()]; ok && step == ctx.Superstep() {
		panic("poisoned")
	}
}

// victimsOf picks, in each of the workers' vertex blocks, the first two
// vertices with out-arcs, to panic at supersteps 0–2.
func victimsOf(g *graph.Graph, workers int) map[graph.VertexID]int {
	victims := map[graph.VertexID]int{}
	block := (g.NumVertices() + workers - 1) / workers
	for w := range workers {
		found := 0
		for u := w * block; u < min((w+1)*block, g.NumVertices()) && found < 2; u++ {
			if g.OutDegree(graph.VertexID(u)) > 0 {
				victims[graph.VertexID(u)] = (w + found) % 3
				found++
			}
		}
	}
	return victims
}

func massSubject(victims bool) subject {
	return subject{run: func(g *graph.Graph, o runOpts) (*outcome, error) {
		po := pregel.Options{
			Workers: o.workers, Scheduler: o.sched, Quarantine: o.quarantine,
			MaxSupersteps: o.maxSteps, Checkpoint: o.ckpt, Shard: o.shard,
		}
		switch {
		case o.warm != nil:
			po.Seed = pregel.Warm(o.warm, o.changes.Touched(o.warm.NumVertices), o.changes.OldFingerprint, false)
		case o.resume != nil:
			po.Seed = pregel.Continue(o.resume)
		}
		e := pregel.New[massVal, float64](g, po)
		if o.combine {
			e.SetCombiner(pregel.CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
		}
		if _, err := e.RegisterAggregator("mass", pregel.AggSum, false); err != nil {
			return nil, err
		}
		var prog massProgram
		if victims {
			prog.victims = victimsOf(g, o.workers)
		}
		st, err := e.Run(prog)
		out, err := engineOutcome(e, st, err)
		out.aggs = []uint64{math.Float64bits(e.AggregatorValue("mass"))}
		out.terminal = func() *pregel.Snapshot {
			s, _ := e.Snapshot()
			return s
		}
		return out, err
	}}
}

// check runs the point and its canonical run and holds them to the
// contract.
func (p point) check(t *testing.T) {
	s := p.subject(t)
	g0 := oracleGraphs[p.graph].build()
	base := runOpts{workers: int(p.workers), combine: p.combine, quarantine: p.quarantine}
	if p.queue {
		base.sched = pregel.WorkQueue
	}
	if p.start == startWarm {
		p.checkWarm(t, s, g0, base)
		return
	}
	// A cold in-process closures point and its canonical run checkpoint
	// every barrier, for sameAsKernels.
	canonOpts, kernels := base, p.closures && p.start == startCold && p.shards == 1
	var ckpt [2]bytes.Buffer
	sink := func(i int, o *runOpts) {
		if kernels {
			o.ckpt = pregel.CheckpointOptions{Every: 1, Sink: &ckpt[i]}
		}
	}
	sink(0, &canonOpts)
	canon, err := s.run(g0, canonOpts)
	if err == nil {
		remember(p.canon().String(), canon)
	} else {
		if p.start == startCold && s.prog != nil {
			t.Errorf("a compiled program must finish cold: %v", err) // layer 3
		}
		// A drawn program that does not finish must not finish anywhere.
		_, errs := p.runPoint(t, s, inRepr(t, g0, p.repr), base, nil)
		if slices.Contains(errs, nil) {
			t.Fatalf("the point finished where the canonical run failed: %v", err)
		}
		if kernels && errs[0].Error() != err.Error() {
			t.Fatalf("closures failed with %q, kernels with %q", errs[0], err)
		}
		return
	}
	gp := inRepr(t, g0, p.repr)
	if n := canon.stats.Supersteps; p.start != startCold && p.at != atAll && int(p.at) >= n {
		t.Skipf("barrier %d is past the run's last, %d", p.at, n-1)
	}
	switch p.start {
	case startCold:
		outs := p.mustRunPoint(t, s, gp, base, func(_ int, o *runOpts) { sink(1, o) })
		requireAll(t, canon, -1, outs)
		if kernels {
			sameAsKernels(t, canon, outs[0], ckpt[0].Bytes(), ckpt[1].Bytes())
		}
		p.agree(t, s, g0, base, canon)
	case startTip:
		p.eachBarrier(t, canon.stats.Supersteps, func(t *testing.T, k int) {
			dirs := tempDirs(t, p.shards)
			stop := base
			stop.maxSteps = k + 1
			outs, errs := p.runPoint(t, s, gp, stop, func(i int, o *runOpts) {
				o.ckpt = pregel.CheckpointOptions{Dir: dirs[i]}
			})
			snaps := make([]*pregel.Snapshot, len(outs))
			for i, o := range outs {
				if o == nil {
					t.Fatalf("shard %d: run stopped at barrier %d: %v", i, k, errs[i])
				}
				snaps[i] = loadChainT(t, o.stats.CheckpointPath)
				if snaps[i].Superstep != k || !bytes.Equal(snaps[i].AppendTo(nil), loadChainT(t, dirs[i]).AppendTo(nil)) {
					t.Fatalf("shard %d: tip %s is superstep %d, not barrier %d of its chain", i, o.stats.CheckpointPath, snaps[i].Superstep, k)
				}
			}
			requireAll(t, canon, k, p.mustRunPoint(t, s, gp, base, func(i int, o *runOpts) { o.resume = snaps[i] }))
		})
	case startRecord:
		dirs := tempDirs(t, p.shards)
		full := p.mustRunPoint(t, s, inRepr(t, g0, p.seedRepr()), base, func(i int, o *runOpts) {
			o.ckpt = pregel.CheckpointOptions{Every: 1, Dir: dirs[i]}
		})
		requireAll(t, canon, -1, full)
		p.eachBarrier(t, canon.stats.Supersteps, func(t *testing.T, k int) {
			snaps := make([]*pregel.Snapshot, p.shards)
			for i, dir := range dirs {
				snaps[i] = snapshotAt(t, dir, k)
			}
			requireAll(t, canon, k, p.mustRunPoint(t, s, gp, base, func(i int, o *runOpts) { o.resume = snaps[i] }))
		})
	}
}

// eachBarrier resumes at the point's barrier, or under @all at each in subtest barrier-k.
func (p point) eachBarrier(t *testing.T, n int, resume func(t *testing.T, k int)) {
	if p.at != atAll {
		resume(t, int(p.at))
	}
	for k := 0; k < n && p.at == atAll; k++ {
		t.Run("barrier-"+strconv.Itoa(k), func(t *testing.T) { resume(t, k) })
	}
}

// checkWarm checks a warm start: the canonical run warm-starts on the
// flat mutated graph from the converged flat run; the point from a run on
// its seed representation, onto its own mutated graph.
func (p point) checkWarm(t *testing.T, s subject, g0 *graph.Graph, base runOpts) {
	d := decodeFuzzDelta(p.ops, g0.NumVertices())
	g1, ad, err := graph.ApplyDelta(g0, d)
	if d.Len() == 0 || err != nil {
		t.Skipf("no batch to warm-start after (%v)", err) // empty, or the store refuses it
	}
	seed := mustRun(t, s, g0, base).terminal()
	warm := func(o runOpts, snap *pregel.Snapshot, ad *graph.AppliedDelta) runOpts {
		o.warm, o.changes = snap, ad
		return o
	}
	canon, cerr := s.run(g1, warm(base, seed, ad))
	if cerr != nil && cerr.Error() == "" {
		t.Fatal("the warm start was refused with an empty error")
	}
	if cerr == nil && s.prog != nil {
		if mustReject(s.prog.Repairability(), ad) {
			t.Fatalf("the repair matrix rules the batch out statically, but RunDelta accepted it (%v)", d.Muts)
		}
		// Folds are exact with one worker too; anywhere else the repair
		// re-associates.
		exact := exactFolds(s.prog) || (base.workers == 1 && s.prog.Opts.Epsilon == 0)
		agreeBits(t, "warm run against the from-scratch run", canon.vals, mustRun(t, s, g1, base).vals, exact)
	}
	gp1, adp, err := graph.ApplyDelta(inRepr(t, g0, p.repr), d)
	if err != nil {
		t.Fatalf("the %s graph refuses a batch the flat one applied: %v", reprNames[p.repr], err)
	}
	if p.xrepr || p.repr != reprFlat {
		seed = mustRun(t, s, inRepr(t, g0, p.seedRepr()), base).terminal()
	}
	outs, errs := p.runPoint(t, s, gp1, warm(base, seed, adp), nil)
	for i, err := range errs {
		if (err == nil) != (cerr == nil) {
			t.Fatalf("shard %d: warm start: %v; the canonical one: %v", i, err, cerr)
		}
	}
	if cerr == nil {
		requireAll(t, canon, -1, outs)
	}
}

// agree holds a cold point's canonical run, canon, to layer 3.
func (p point) agree(t *testing.T, s subject, g *graph.Graph, base runOpts, canon *outcome) {
	t.Helper()
	if want, exact, ok := p.reference(s, g); ok {
		agreeBits(t, "the reference algorithm", canon.vals, want, exact)
	}
	if p.victims && canon.stats.Quarantined != len(victimsOf(g, base.workers)) {
		t.Fatalf("quarantined %d vertices, want the %d victims", canon.stats.Quarantined, len(victimsOf(g, base.workers)))
	}
	sent, delivered := canon.stats.MessagesSent, canon.stats.CombinedMessages
	if base.combine && delivered > sent {
		t.Fatalf("combining delivered %d envelopes of %d messages sent", delivered, sent)
	}
	if s.prog == nil {
		return
	}
	name, mode := p.progName(), allModes[p.mode]
	// PageRank sends on every out-arc at its prime, so a vertex with more
	// in-arcs than there are workers gets two messages from one worker,
	// which combining folds (a memo-table message names its sender: none).
	if base.combine && strings.HasPrefix(name, "pagerank") && mode != core.MemoTable && delivered == sent {
		g.BuildReverse()
		for u := range graph.VertexID(g.NumVertices()) {
			if g.InDegree(u) > base.workers {
				t.Fatalf("combining delivered all %d messages sent, though vertex %d has %d in-arcs", sent, u, g.InDegree(u))
			}
		}
	}
	if slices.Contains(programs.Names(), name) && canon.nonMono != 0 {
		t.Fatalf("%d non-monotone Δ-messages", canon.nonMono)
	}
	// One worker on the scan scheduler without combining computes the same.
	if base.workers > 1 || base.sched != pregel.ScanAll || base.combine {
		q := p.canon()
		q.workers, q.queue, q.combine, q.quarantine = 1, false, false, false
		one := q.coldRun(t, g, runOpts{workers: 1})
		oneSent := one.stats.MessagesSent
		if exact := exactFolds(s.prog); exact || p.fam == famCorpus {
			agreeBits(t, "against one worker", canon.vals, one.vals, exact)
		}
		if exactFolds(s.prog) && sent != oneSent {
			t.Fatalf("%d messages sent, %d by one worker", sent, oneSent)
		}
		// A fold order flips changed(vl) on a last bit, so PageRank's count
		// moves with it: on 256 or more directed vertices within 0.1 %
		// (seen: 0.11 % on rmat8u, 2.8 % on rnd graphs); combining moves
		// it further.
		big := oracleGraphs[p.graph].directed && g.NumVertices() >= 256
		if strings.HasPrefix(name, "pagerank") && big && !base.combine && 1000*max(sent-oneSent, oneSent-sent) > oneSent {
			t.Fatalf("%d messages sent, %d by one worker: over 0.1 %% apart", sent, oneSent)
		}
	}
	if mode == core.Baseline {
		return
	}
	// Every mode computes what ΔV★ computes; ΔV in no more messages.
	q := p.canon()
	q.mode = uint8(slices.Index(allModes, core.Baseline))
	star := q.coldRun(t, g, base)
	if canon.nonMono > 0 || star.nonMono > 0 {
		if p.fam == famRandom {
			randExempt.skipped.Add(1)
		}
		return // a min or max fed by a non-monotone field: its Δs are unsound by contract
	}
	if p.fam == famRandom {
		randExempt.compared.Add(1)
	}
	// Δ-sums invert a sum by subtraction, which a non-finite weight defeats.
	if exactFolds(s.prog) || g.FiniteWeights() {
		agreeBits(t, "against ΔV★", canon.vals, star.vals, false)
	}
	// HITS's unnormalized scores grow on every cycle, so it saves messages
	// only where a digraph has acyclic parts, as every fixed one does.
	hitsSaves := name == "hits" && oracleGraphs[p.graph].directed && int(p.graph) < fixedGraphs
	if starSent := star.stats.MessagesSent; mode == core.Incremental && p.fam == famCorpus {
		switch {
		case sent > starSent:
			t.Fatalf("ΔV sent %d messages, ΔV★ %d", sent, starSent)
		case (name == "sssp" || name == "cc") && sent != starSent:
			t.Fatalf("ΔV sent %d messages, ΔV★ %d: pre-incrementalized programs send exactly as many (§7.2)", sent, starSent)
		case (strings.HasPrefix(name, "pagerank") || hitsSaves) && sent == starSent:
			t.Fatalf("ΔV sent as many messages as ΔV★, %d", sent)
		case strings.HasPrefix(name, "pagerank") && canon.stats.TotalActive >= star.stats.TotalActive:
			t.Fatalf("ΔV ran %d vertices, ΔV★ %d: halting by default ran none fewer", canon.stats.TotalActive, star.stats.TotalActive)
		}
	}
}

// canon names the point's canonical run: cold, in-process, flat, with the
// kernels on.
func (p point) canon() point {
	p.closures, p.xrepr, p.repr, p.shards, p.start, p.at, p.ops = false, false, reprFlat, 1, startCold, 0, nil
	return p
}

// coldRuns memoizes the cold canonical runs of the points they are named
// by, so each run layer 3 compares against runs once in the fixed slice.
var coldRuns = map[string]*outcome{}

// remember caches what layer 3 reads of out under key, forgetting all
// past 4096 runs for long fuzz sessions.
func remember(key string, out *outcome) *outcome {
	if len(coldRuns) >= 4096 {
		clear(coldRuns)
	}
	coldRuns[key] = &outcome{vals: out.vals, nonMono: out.nonMono, stats: out.stats}
	return out
}

// coldRun is the canonical run of q, a canon point, over g with o.
func (q point) coldRun(t *testing.T, g *graph.Graph, o runOpts) *outcome {
	t.Helper()
	if out, ok := coldRuns[q.String()]; ok {
		return out
	}
	return remember(q.String(), mustRun(t, q.subject(t), g, o))
}

// reference is what a sequential algorithm computes for the point's
// program on g, as the bits its outcome holds, and whether no fold order
// can move them (exact); ok is false where no reference applies.
func (p point) reference(s subject, g *graph.Graph) (want []uint64, exact, ok bool) {
	hand, n := p.fam == famHand, g.NumVertices()
	if !hand && p.fam != famCorpus {
		return nil, false, false
	}
	g.BuildReverse()
	f := map[string][]float64{}
	order := []string{"vl"} // the handwritten value's fields
	switch p.progName() {
	case "pagerank":
		vl, pr := algorithms.PageRankOracle(g, 30), make([]float64, n)
		for u := range pr {
			if d := g.OutDegree(graph.VertexID(u)); d > 0 {
				pr[u] = vl[u] / float64(d)
			}
		}
		f["vl"], f["pr"] = vl, pr
	case "sssp":
		if !g.FiniteWeights() {
			return nil, false, false // Dijkstra needs non-negative real weights
		}
		order, exact = []string{"dist"}, true
		if src, v := p.srcValue(g), graph.VertexID(p.srcValue(g)); float64(v) == src && int(v) < n {
			f["dist"] = algorithms.SSSPOracle(g, v)
		} else {
			for range n { // no vertex is the source
				f["dist"] = append(f["dist"], math.Inf(1))
			}
		}
	case "cc", "wcc":
		if hand && g.Directed() {
			return nil, false, false // HashMin along out-arcs labels no weak components
		}
		cid, _ := graph.ConnectedComponents(g)
		for _, c := range cid {
			f["cid"] = append(f["cid"], float64(c))
		}
		order, exact = []string{"cid"}, true
	case "hits":
		f["hub"], f["auth"] = algorithms.HITSOracle(g, 7)
		order = []string{"hub", "auth"}
	case "prod":
		f["w"], f["p"] = prodOracle(g, 6)
	default:
		return nil, false, false
	}
	if !hand {
		for _, fl := range s.prog.Layout.Fields[:s.prog.Layout.UserFields] {
			for _, x := range f[fl.Name] {
				want = append(want, math.Float64bits(x))
			}
		}
		return want, exact, true
	}
	for u := range n {
		for _, name := range order {
			x := math.Float64bits(f[name][u])
			if name == "cid" {
				x = uint64(int64(f[name][u])) // CCState.Comp is an int64
			}
			want = append(want, x)
		}
	}
	return want, exact, true
}

// prodOracle mirrors prod.dv sequentially.
func prodOracle(g *graph.Graph, iters int) (w, p []float64) {
	n := g.NumVertices()
	w, p = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if i == 0 {
			w[i] = 0
		} else {
			w[i] = 1 + 1/(1+float64(i))
		}
		p[i] = 1
	}
	for k := 1; k <= iters; k++ {
		nw := append([]float64(nil), w...)
		np := make([]float64, n)
		for u := 0; u < n; u++ {
			prod := 1.0
			for it := g.InArcs(graph.VertexID(u)); it.Next(); {
				prod *= w[it.To()]
			}
			np[u] = prod
			if u == 0 {
				if k >= 3 {
					nw[u] = 2.0
				} else {
					nw[u] = 0.0
				}
			}
		}
		w, p = nw, np
	}
	return w, p
}

// exactFolds reports whether no fold order can move what prog computes:
// ε = 0, and no sum or product site.
func exactFolds(prog *core.Program) bool {
	return prog.Opts.Epsilon == 0 && !slices.ContainsFunc(prog.Sites,
		func(a *core.AggSite) bool { return a.Op == ast.AggSum || a.Op == ast.AggProd })
}

// sameAsKernels holds a closures run to the kernels' past layer 1: every
// layout field, every barrier's snapshot bytes, every statistic but
// durations, and the non-monotone count.
func sameAsKernels(t *testing.T, kernels, closures *outcome, kernelsCkpt, closuresCkpt []byte) {
	t.Helper()
	sameBits(t, "layout fields with closures", closures.fields, kernels.fields)
	stats := func(o *outcome) pregel.Stats {
		st := *o.stats
		st.Duration, st.Steps = 0, nil
		return st
	}
	if !bytes.Equal(kernelsCkpt, closuresCkpt) || closures.nonMono != kernels.nonMono || !reflect.DeepEqual(stats(closures), stats(kernels)) {
		t.Fatalf("closures and kernels differ in snapshot bytes (%t equal), non-monotone Δ-messages (%d, %d) or statistics:\n%+v\n%+v",
			bytes.Equal(kernelsCkpt, closuresCkpt), closures.nonMono, kernels.nonMono, stats(closures), stats(kernels))
	}
}

// requireKernelVariants fails unless the closures seeds' programs run
// every kernel core classifies a receive or send as.
func requireKernelVariants(f *testing.F, seeds []point) {
	seen := map[string]bool{}
	compiled := map[string]bool{}
	for _, p := range seeds {
		if !p.closures || compiled[p.progName()+p.modeName()] {
			continue
		}
		compiled[p.progName()+p.modeName()] = true
		prog, err := p.compile()
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range prog.KernelLines() {
			_, k, _ := strings.Cut(line, "kernel: ")
			seen[k] = true
		}
	}
	for _, k := range []string{
		"fold sum", "fold min", "fold max",
		"per-arc Δ-min x + w", "per-arc full-min x + w", "per-arc Δ-min x - w",
		"per-arc Δ-max x + w", "per-arc Δ-max w - x",
		"per-arc Δ-sum w + x", "per-arc full-sum w + x", "per-arc Δ-sum w - x", "per-arc full-sum w - x",
	} {
		if !seen[k] {
			f.Errorf("no closures seed runs the kernel %q", k)
		}
	}
}

// agreeBits fails unless got matches want: bit for bit when exact, else
// value by value within close9.
func agreeBits(t *testing.T, label string, got, want []uint64, exact bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	if exact {
		sameBits(t, label, got, want)
	}
	for i := range want {
		if g, w := math.Float64frombits(got[i]), math.Float64frombits(want[i]); !close9(g, w) {
			t.Fatalf("%s: value %d of %d = %g, want %g", label, i, len(want), g, w)
		}
	}
}

// close9 reports whether a and b agree within 1e-9, relative to their
// magnitude. A NaN matches only a NaN (±∞ identity elements mixing across
// aggregations produce NaN deterministically in every mode), and an
// infinity only itself.
func close9(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// seedRepr is the representation a resumed or warm point's seed run uses:
// its own, or with xrepr another one.
func (p point) seedRepr() repr {
	if !p.xrepr {
		return p.repr
	} else if p.repr == reprFlat {
		return reprCompact
	}
	return reprFlat
}

// inRepr returns g in representation r (g itself when flat).
func inRepr(t *testing.T, g *graph.Graph, r repr) *graph.Graph {
	t.Helper()
	switch r {
	case reprCompact:
		return graph.MustCompact(g)
	case reprMmap:
		path := filepath.Join(t.TempDir(), "g.dvg")
		if err := graph.WriteGraphFile(path, g); err != nil {
			t.Fatal(err)
		}
		m, err := graph.ReadGraphFile(path, graph.LoadMmap)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	return g
}

func tempDirs(t *testing.T, n uint8) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	return dirs
}

// runPoint runs s over g at the point: in-process with one shard, else
// on every shard of a mesh. perShard, when set, adjusts each shard's
// options, on the shard's goroutine, so it must not fail t. It returns
// each shard's outcome and error.
func (p point) runPoint(t *testing.T, s subject, g *graph.Graph, o runOpts, perShard func(i int, o *runOpts)) ([]*outcome, []error) {
	t.Helper()
	o.closures = p.closures
	if p.shards == 1 {
		if perShard != nil {
			perShard(0, &o)
		}
		out, err := s.run(g, o)
		return []*outcome{out}, []error{err}
	}
	return runShards(t, g, int(p.shards), func(sh *pregel.ShardOptions) (*outcome, error) {
		o := o
		o.shard = sh
		if perShard != nil {
			perShard(sh.Index, &o)
		}
		return s.run(g, o)
	})
}

// mustRunPoint is runPoint for runs that must succeed on every shard.
func (p point) mustRunPoint(t *testing.T, s subject, g *graph.Graph, o runOpts, perShard func(i int, o *runOpts)) []*outcome {
	t.Helper()
	outs, errs := p.runPoint(t, s, g, o, perShard)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return outs
}

func mustRun(t *testing.T, s subject, g *graph.Graph, o runOpts) *outcome {
	t.Helper()
	out, err := s.run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runShards calls run once per shard of a fresh count-shard unix-socket
// mesh over g and returns each shard's result and error.
func runShards[R any](t *testing.T, g *graph.Graph, count int, run func(*pregel.ShardOptions) (R, error)) ([]R, []error) {
	t.Helper()
	// A socket path must fit sun_path, which a subtest's TempDir can overrun.
	dir, err := os.MkdirTemp("", "mesh")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
	}
	out, errs := make([]R, count), make([]error, count)
	var wg sync.WaitGroup
	for i := range count {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := transport.DialMesh(transport.SocketConfig{
				Shard: i, Count: count, Addrs: addrs,
				Fingerprint: g.Fingerprint(), Timeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer tr.Close()
			out[i], errs[i] = run(&pregel.ShardOptions{Index: i, Count: count, Transport: tr})
		}()
		// Start the next shard once this one listens, so its dial never
		// waits out DialMesh's retry interval.
		for deadline := time.Now().Add(10 * time.Second); i < count-1 && time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if _, err := os.Stat(strings.TrimPrefix(addrs[i], "unix:")); err == nil {
				break
			}
		}
	}
	wg.Wait()
	return out, errs
}

// statsKey is the part of Stats bit identity covers, besides Steps.
type statsKey struct {
	supersteps                                       int
	sent, combined, crossWorker, active, quarantined int64
}

func keyOf(s *pregel.Stats) statsKey {
	return statsKey{s.Supersteps, s.MessagesSent, s.CombinedMessages, s.CrossWorker, s.TotalActive, int64(s.Quarantined)}
}

// tally is the statsKey of a run that executed exactly steps.
func tally(steps []pregel.StepStats) statsKey {
	k := statsKey{supersteps: len(steps)}
	for _, st := range steps {
		k.sent += int64(st.MessagesSent)
		k.combined += int64(st.CombinedMessages)
		k.crossWorker += int64(st.CrossWorker)
		k.active += int64(st.ActiveVertices)
	}
	return k
}

// requireAll fails unless every outcome is bit-identical to want; k ≥ 0
// marks runs resumed at barrier k, which owe want's Steps after k.
func requireAll(t *testing.T, want *outcome, k int, got []*outcome) {
	t.Helper()
	steps, key := want.stats.Steps, keyOf(want.stats)
	if k >= 0 {
		steps = steps[k+1:]
		key = tally(steps)
	}
	for i, g := range got {
		label := fmt.Sprintf("shard %d", i)
		if k >= 0 {
			label += fmt.Sprintf(", resumed at barrier %d", k)
		}
		sameBits(t, label, g.vals, want.vals)
		if !slices.Equal(g.aggs, want.aggs) || !slices.Equal(g.iters, want.iters) {
			t.Fatalf("%s: aggregators %x, iterations %v; want %x, %v", label, g.aggs, g.iters, want.aggs, want.iters)
		}
		if !slices.Equal(g.stats.QuarantinedVertices, want.stats.QuarantinedVertices) && k < 0 {
			t.Fatalf("%s: quarantined %v, want %v", label, g.stats.QuarantinedVertices, want.stats.QuarantinedVertices)
		}
		if keyOf(g.stats) != key || !slices.EqualFunc(g.stats.Steps, steps, func(a, b pregel.StepStats) bool {
			a.Duration, b.Duration = 0, 0
			return a == b
		}) {
			t.Fatalf("%s: stats %+v, steps %+v;\nwant %+v, steps %+v", label, keyOf(g.stats), g.stats.Steps, key, steps)
		}
	}
}

// fieldBits is every layout field of res, field by field, as bits, and
// how many of them belong to user fields, which come first.
func fieldBits(prog *core.Program, res *Result) (bits []uint64, user int) {
	for i, f := range prog.Layout.Fields {
		if i == prog.Layout.UserFields {
			user = len(bits)
		}
		v, _ := res.FieldVector(f.Name)
		for _, x := range v {
			bits = append(bits, math.Float64bits(x))
		}
	}
	if prog.Layout.UserFields == len(prog.Layout.Fields) {
		user = len(bits)
	}
	return bits, user
}

// userBits is every user field of res, field by field, as bits.
func userBits(prog *core.Program, res *Result) []uint64 {
	bits, user := fieldBits(prog, res)
	return bits[:user]
}

// sameBits fails unless got and want hold the same bits.
func sameBits(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if !slices.Equal(got, want) {
		j := 0
		for j < min(len(got), len(want))-1 && got[j] == want[j] {
			j++
		}
		t.Fatalf("%s: value %d of %d = %#x, want %#x of %d", label, j, len(got), got[j], want[j], len(want))
	}
}

// bitIdentitySeeds is the fixed slice. Every row of the per-layer
// equivalence matrices this harness replaced is one seed, plus cross
// products none of them ran.
func bitIdentitySeeds() []point {
	var seeds []point
	add := func(name string, ops ...[]byte) { seeds = append(seeds, parsePoint(name, ops...)) }
	modes := []string{"dV", "dV*", "dV-memotable"}
	scheds := []string{"scan", "scan/combine", "queue", "queue/combine"}

	// Compact CSR: the corpus in every mode, one worker.
	for _, name := range programs.Names() {
		g := "rmat8"
		if usesNeighbors(programs.MustSource(name)) {
			g = "rmat8u"
		}
		for _, m := range modes {
			add(name + "/" + m + "/" + g + "/w1/scan/compact/shards1/cold")
		}
	}
	// Warm repair on a compact graph, and seeds captured on the other
	// representation.
	add("sssp/dV/chain/w4/scan/combine/compact/shards1/warm", addArc(0, 60, 1.5), setWeight(30, 31, 1))
	add("sssp/dV/chain/w4/scan/compact/shards1/warm-xrepr", addArc(0, 40, 1))
	add("sssp/dV/chain/w4/scan/flat/shards1/warm-xrepr", addArc(0, 40, 1))
	// The corpus over two shards.
	for _, m := range []string{"dV", "dV*"} {
		add("pagerank/" + m + "/rmat8/w4/scan/flat/shards2/cold")
		add("sssp/" + m + "/grid/w4/scan/flat/shards2/cold")
		add("cc/" + m + "/ba/w4/scan/flat/shards2/cold")
		add("sssp/" + m + "/grid/w4/scan/quarantine/flat/shards2/cold")
	}
	// RunDelta over two shards.
	for _, s := range []string{"scan", "queue"} {
		add("pagerank-fixpoint/dV/rmat8/w4/"+s+"/combine/flat/shards2/warm", addArc(3, 11, 1), addArc(40, 2, 1))
		add("sssp/dV/grid/w4/"+s+"/combine/flat/shards2/warm", addArc(5, 170, 1), addArc(20, 99, 2))
	}
	// Sharded runs resumed from each shard's chain tip and from a record.
	for _, prog := range []string{"pagerank/dV/rmat8", "sssp/dV-memotable/grid", "cc/dV-memotable/ba"} {
		add(prog + "/w4/scan/combine/flat/shards2/resume-tip@4")
		add(prog + "/w4/scan/combine/flat/shards2/resume-record@3")
	}
	// Resume from every barrier, in-process.
	for _, prog := range []string{"pagerank/dV/rmat8", "sssp/dV-memotable/rmat8", "cc/dV/ba", "twophase/dV/rmat8"} {
		for _, s := range []string{"scan", "queue"} {
			add(prog + "/w4/" + s + "/flat/shards1/resume-record@all")
		}
	}
	// The handwritten baselines: compact CSR under every scheduler ×
	// combiner, mmap, two shards, and resumed from every barrier.
	for _, s := range scheds {
		for _, prog := range []string{"pagerank", "sssp", "hits", "cc"} {
			add(prog + "/handwritten/rmat9w/w4/" + s + "/compact/shards1/cold")
		}
		add("cc/handwritten/rmat8u/w4/" + s + "/compact/shards1/cold")
	}
	add("pagerank/handwritten/rmat9w/w4/scan/combine/mmap/shards1/cold")
	add("pagerank/handwritten/rmat8/w4/scan/combine/flat/shards2/cold")
	add("sssp/handwritten/rmat9w/w4/scan/combine/flat/shards2/cold")
	add("cc/handwritten/ba/w4/scan/combine/flat/shards2/cold")
	for _, s := range scheds {
		for _, prog := range []string{"pagerank/handwritten/rmat8", "sssp/handwritten/grid", "cc/handwritten/ba", "hits/handwritten/rmat8"} {
			add(prog + "/w4/" + s + "/flat/shards1/resume-record@all")
		}
	}
	// The engine's sum-aggregator program: even and uneven splits, a kill
	// at every barrier, and warm starts across shards.
	for _, s := range []string{"w4/scan/flat/shards2", "w4/scan/combine/flat/shards2", "w4/queue/flat/shards2", "w5/scan/combine/flat/shards3", "w5/queue/flat/shards3"} {
		add("mass/pregel/rmat8/" + s + "/cold")
	}
	add("mass/pregel/rmat8/w4/scan/combine/flat/shards2/resume-tip@all")
	for _, s := range []string{"w4/scan/flat/shards2", "w4/queue/flat/shards2", "w5/scan/flat/shards3", "w5/queue/flat/shards3"} {
		add("mass/pregel/rmat8/"+s+"/warm", addArc(0, 200, 1), addArc(0, 77, 1), addArc(130, 5, 1))
	}
	// Cross products no hand-kept matrix ran.
	add("pagerank/dV/rmat8/w5/queue/compact/shards3/resume-record@3")
	add("sssp/dV-memotable/grid/w3/queue/combine/compact/shards3/resume-record-xrepr@all")
	add("pagerank/dV/rmat8/w4/scan/flat/shards1/resume-tip@0")
	add("mass/pregel/rmat8/w4/queue/mmap/shards2/resume-record-xrepr@all")
	add("cc/dV-memotable/ba/w6/queue/quarantine/mmap/shards3/resume-tip@2")
	add("sssp/dV-memotable/grid/w5/queue/mmap/shards2/warm-xrepr", addArc(5, 170, 1), removeArc(0, 1), setWeight(20, 21, 0.25))
	// Vertex 29 has no in-arcs: only the planner wakes it to re-derive
	// pr = vl / |#out| after its out-degree changes.
	add("pagerank-fixpoint/dV/rmat8/w1/scan/compact/shards1/warm", addArc(29, 5, 1), removeArc(0, 1))
	add("mass/pregel/rmat8/w6/queue/combine/quarantine/compact/shards3/warm-xrepr", addArc(9, 200, 1))
	add("rand7/dV/rmat8/w4/queue/combine/compact/shards2/resume-record@all")
	add("rand11/dV-memotable/chain/w3/scan/mmap/shards3/resume-tip@2")
	add("rand3/dV*/rmat9w/w5/scan/combine/flat/shards3/cold")
	// dvrun's pagerank row: two shards resumed mid-run and at the end.
	add("pagerank/dV/rmat8/w4/scan/combine/flat/shards2/resume-record@all")

	// Layer 3. The corpus against its references, in every mode.
	for _, m := range modes {
		add("pagerank/" + m + "/rmat8/w4/scan/flat/shards1/cold")
		add("sssp/" + m + "/grid/w4/scan/flat/shards1/cold")
		add("cc/" + m + "/ba500/w4/scan/flat/shards1/cold")
		add("hits/" + m + "/rmat8/w4/scan/flat/shards1/cold")
		for _, s := range []string{"scan", "queue"} {
			add("sssp/" + m + "/ws400/w5/" + s + "/combine/flat/shards1/cold")
		}
	}
	add("pagerank/handwritten/rmat8/w4/scan/flat/shards1/cold")
	// Schedulers, worker counts and combining against one worker.
	for _, s := range []string{"scan", "queue"} {
		for _, w := range []string{"w2", "w7"} {
			add("pagerank/dV/rmat8/" + w + "/" + s + "/flat/shards1/cold")
		}
	}
	for _, w := range []string{"w2", "w7"} {
		add("sssp/dV/rmat8/" + w + "/scan/flat/shards1/cold")
	}
	add("pagerank/dV/rmat8/w4/scan/combine/flat/shards1/cold")
	// Small random graphs: PageRank in no more messages under ΔV, SSSP in
	// every mode and handwritten against Dijkstra, and weak components.
	for k := range 30 {
		r, w := "/rnd"+strconv.Itoa(k), "/w"+strconv.Itoa(1+k%4)
		if k < 25 {
			add("pagerank/dV" + r + w + "/scan/flat/shards1/cold")
		}
		if k < 20 {
			for _, m := range modes {
				add("sssp/" + m + r + "/w1/scan/flat/shards1/cold")
			}
		}
		add("wcc/dV" + r + w + "/scan/flat/shards1/cold")
		add("sssp/handwritten" + r + w + []string{"/scan", "/scan/combine"}[k%2] + "/flat/shards1/cold")
		add("cc/handwritten/rndu" + strconv.Itoa(k) + w + "/scan/flat/shards1/cold")
	}
	// Hand-drawn graphs: unreachable vertices, weak components through a
	// back edge, vertex 0's product turning from the absorbing 0 to 2
	// (Eq. 9's nullary tags), and two phases.
	add("sssp/dV/dag5/w2/scan/flat/shards1/cold")
	for _, m := range modes {
		add("wcc/" + m + "/weak5/w2/scan/flat/shards1/cold")
		add("prod/" + m + "/prod6/w2/scan/flat/shards1/cold")
		add("twophase/" + m + "/rmat6b/w3/scan/flat/shards1/cold")
	}
	// The handwritten baselines against the same references.
	add("sssp/handwritten/grid/w4/scan/combine/flat/shards1/cold")
	add("sssp/handwritten/paths4/w2/scan/flat/shards1/cold")
	add("cc/handwritten/ba300/w3/scan/combine/flat/shards1/cold")
	add("cc/handwritten/multi10/w3/scan/combine/flat/shards1/cold")
	add("hits/handwritten/rmat7/w4/scan/flat/shards1/cold")
	add("hits/handwritten/rmat7/w4/scan/combine/flat/shards1/cold")
	// Random programs: ΔV and memo-table against ΔV★.
	for k := range 120 {
		for _, m := range []string{"dV", "dV-memotable"} {
			add(fmt.Sprintf("rand%d/%s/rnd%d/w3/scan/flat/shards1/cold", k, m, k))
		}
	}
	// Kernels against closures: the corpus, rand0…rand31 and every kernel
	// shape in every mode, over graphs with −∞, +∞ and NaN arcs.
	for i := range len(vmSources) + 32 {
		prog, u := "rand"+strconv.Itoa(i-len(vmSources)), ""
		if i < len(vmSources) {
			prog = vmSources[i].name
			if usesNeighbors(vmSources[i].src) {
				u = "u"
			}
		}
		if prog == "pagerank-fixpoint" {
			continue
		}
		for _, m := range modes {
			for _, g := range []string{"mg40", "rmat6", "ninf40", "pinf40", "nan40"} {
				for _, c := range []string{"", "/combine"} {
					add(prog + "/" + m + "/" + g + u + "/w3/scan" + c + "/closures/flat/shards1/cold")
				}
			}
		}
	}
	// The start template against init on every vertex (closures): src at
	// the edges of the worker blocks (grid has 180 vertices), naming no
	// vertex, and as −0; a non-finite weight that keeps a per-arc prime
	// alive; the programs with a template and allreach, which has none, on
	// random graphs; and src on a shard boundary, against the in-process
	// run.
	for i := srcThird; i < numSrcs; i++ {
		add("sssp/dV/grid/w4/scan/closures/" + srcNames[i] + "/flat/shards1/cold")
	}
	add("sssp/dV*/grid/w3/queue/closures/src-third/flat/shards1/cold")
	add("sssp/dV/grid/w2/queue/quarantine/closures/src-half-end/flat/shards1/cold")
	for _, g := range []string{"nan40", "pinf40"} {
		add("sssp/dV/" + g + "/w3/scan/closures/src-last/flat/shards1/cold")
	}
	for k := range 4 {
		r := "/rnd" + strconv.Itoa(40+k) + "/w" + strconv.Itoa(2+k) + []string{"/scan", "/queue/quarantine"}[k%2]
		for _, prog := range []string{"bfs", "reach"} {
			add(prog + "/dV" + r + "/closures" + []string{"", "/src-last", "/src-frac", "/src-half"}[k] + "/flat/shards1/cold")
		}
		add("allreach/dV" + r + "/closures/flat/shards1/cold")
	}
	add("sssp/dV/grid/w2/scan/combine/src-half/flat/shards2/cold")
	add("sssp/dV/grid/w4/queue/src-half-end/compact/shards2/cold")
	add("bfs/dV/grid/w3/scan/src-third/flat/shards3/cold")
	add("sssp/dV/rmat9w/w3/queue/src-third/flat/shards3/cold")
	// Quarantine over shards: every worker holds a victim that sends and
	// then panics.
	add("mass/pregel/rmat8/w5/scan/combine/quarantine/victims/flat/shards2/cold")
	add("mass/pregel/rmat8/w5/queue/quarantine/victims/flat/shards3/cold")
	// Warm starts at one worker, one per corpus program, and one per
	// mutation kind: remove, reweigh twice, grow by a vertex, and remove
	// an arc the graph lacks (200 wraps to 20).
	for _, name := range programs.Names() {
		g := "chain"
		if usesNeighbors(programs.MustSource(name)) {
			g = "cycle60"
		}
		add(name+"/dV/"+g+"/w1/scan/flat/shards1/warm", addArc(2, 25, 1.25))
	}
	add("allreach/dV*/chain/w1/scan/flat/shards1/warm", removeArc(20, 21))
	add("allreach/dV-memotable/chain/w1/scan/flat/shards1/warm", setWeight(10, 11, 0.5), setWeight(10, 11, 4))
	add("degreesum/dV/chain/w1/scan/flat/shards1/warm", addVertex(), addArc(2, 25, 1.25))
	add("maxval/dV-memotable/cycle60/w1/scan/flat/shards1/warm", removeArc(200, 9))
	return seeds
}
