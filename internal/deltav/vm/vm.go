// Package vm executes compiled ΔV programs (core.Program) on the Pregel
// engine. It plays the role of the Pregel+ compute() function the paper's
// compiler emits: the statement list runs as a master-driven state machine,
// each vertex evaluates the transformed statement bodies (including the
// internal receive loops, change checks, Δ-message sends and halts the
// passes inserted), and the master evaluates until{} conditions with an
// incrementally maintained fixpoint aggregator.
package vm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// VState is the engine-side vertex value; the Machine keeps all ΔV vertex
// state in its own flat arrays, so this is empty.
type VState struct{}

// MaxSlots is the widest supported message (aggregation sites per send
// group).
const MaxSlots = 4

// Msg is one ΔV message: the values of a send group's slots, with the
// §6.4.1 nullary/previous-nullary tag bits, and the sender id for the
// §4.2.1 lookup-table mode.
type Msg struct {
	Group   uint8
	NVals   uint8
	TagNull uint8 // bit i: slot i carries a nullary value
	TagPrev uint8 // bit i: slot i's previous message was nullary
	Sender  graph.VertexID
	Vals    [MaxSlots]float64
}

// stepMode is the master state machine's mode.
type stepMode int

const (
	modePrime  stepMode = iota // send full slot values, skip the body
	modeBody                   // run the transformed statement body
	modeRepair                 // emit planned delta-repair sends (RunDelta)
)

// globals is the engine-wide state vertices read. One value lives as long
// as the run: the master rewrites it in place, only between supersteps,
// when no vertex is running.
type globals struct {
	Phase int
	Mode  stepMode
	Iter  int // 1-based iteration counter of the current iter phase
}

// RunOptions configure an execution.
type RunOptions struct {
	// Params override program parameter defaults by name.
	Params map[string]float64
	// Workers is the engine worker count (default GOMAXPROCS).
	Workers int
	// Scheduler selects the engine's vertex scheduler.
	Scheduler pregel.Scheduler
	// Combine enables sender-side combining of combinable send groups.
	Combine bool
	// MaxSupersteps bounds the engine (default 10h of supersteps: 100k).
	MaxSupersteps int
	// Checkpoint enables barrier snapshots (pregel.CheckpointOptions).
	// The VM owns the snapshot's Extra payload — it stores the machine's
	// flat state, memo tables, and master phase there — so any Extra
	// callback set here is ignored.
	Checkpoint pregel.CheckpointOptions
	// Quarantine contains a panic inside a single vertex's evaluation to
	// that vertex (skip + remove + record in Stats.Quarantined) instead
	// of aborting the run — the resident-server posture. See
	// pregel.Options.Quarantine.
	Quarantine bool
	// Shard places the run in a multi-process sharded mesh (see
	// pregel.ShardOptions). Every shard runs the same compiled program
	// over the same graph with identical options; after a successful run
	// the machine's state rows are all-gathered so Result fields are
	// whole on every shard. Requires an explicit Workers value identical
	// on every shard.
	Shard *pregel.ShardOptions
}

// ErrUnknownField is wrapped by the error returned when a field name does
// not exist in the program's layout.
var ErrUnknownField = errors.New("vm: unknown field")

// Result is a finished execution. When a run aborts (cancellation,
// deadline, or a contained panic), RunContext returns a non-nil Result
// holding the partial statistics and field state alongside the error;
// Stats.Aborted records the cause.
type Result struct {
	Stats *pregel.Stats
	// Supersteps per phase body (iterations executed per iter phase).
	Iterations []int
	// NonMonotoneSends counts Δ-messages of idempotent (min/max) sites
	// whose value moved against the operator's direction; non-zero means
	// the memoized accumulators may be stale (see DESIGN.md).
	NonMonotoneSends int64

	machine *Machine
	// end is the engine's terminal barrier state and endGlobals the master
	// state machine at that barrier (nil when the run did not finish);
	// Snapshot joins them with the machine payload on demand.
	end        *pregel.Snapshot
	endGlobals *globals
}

// Snapshot returns the terminal snapshot of a finished run as a value —
// byte for byte what a Checkpoint.Sink would have received last — ready to
// seed the next RunDelta or SeedFromSnapshot. It is nil when the run did
// not finish. The machine payload is encoded on each call, so a caller
// that never asks pays nothing for it.
func (r *Result) Snapshot() *pregel.Snapshot {
	if r.end == nil {
		return nil
	}
	s := *r.end
	s.Extra = r.machine.encodeExtra(nil, r.endGlobals)
	return &s
}

// Field returns vertex u's final value of the named user field, decoded
// per its declared type (bools: 0/1). It panics on an unknown field name;
// use FieldVector when the name comes from untrusted input.
func (r *Result) Field(name string, u graph.VertexID) float64 {
	return r.machine.FieldValue(name, u)
}

// FieldVector returns the named field for all vertices, or an error
// wrapping ErrUnknownField when the layout has no such field.
func (r *Result) FieldVector(name string) ([]float64, error) {
	if r.machine.prog.Layout.Slot(name) < 0 {
		return nil, fmt.Errorf("%w %q", ErrUnknownField, name)
	}
	n := r.machine.g.NumVertices()
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		out[u] = r.machine.FieldValue(name, graph.VertexID(u))
	}
	return out, nil
}

// Machine executes one compiled program over one graph.
type Machine struct {
	prog   *core.Program
	g      *graph.Graph
	params []float64

	stride int
	state  []float64 // n × stride

	// tables[site] is the §4.2.1 per-neighbour cache: one map per vertex,
	// allocated lazily. Only non-nil in MemoTable mode.
	tables [][]map[graph.VertexID]float64

	// redirects[site][slot] is the slot Δ synthesis reads in place of slot
	// when it re-evaluates the site against the $old fields: the $old slot
	// for the site's user fields, slot itself otherwise. Nil for sites
	// without $old fields.
	redirects [][]int
	// Per send group, resolved once so no vertex call chases
	// Groups → Sites: the group's sites, and whether any reads the edge
	// weight (otherwise one message serves every arc, the Eq. 7 lift).
	groupSites    [][]*core.AggSite
	groupWeighted []bool

	// evs[w] is engine worker w's evaluator, re-aimed at each vertex the
	// worker runs, and master the one until{} conditions run on;
	// unchangedAgg is the fixpoint aggregator's engine id.
	evs          []*evaluator
	master       *evaluator
	unchangedAgg int

	iterations  []int
	nonMonotone atomic.Int64
	masterErr   error
	runCtx      context.Context // run's context, visible to the master hook
	ran         bool

	// repair is the delta-recomputation plan (RunDelta only): the
	// retraction/injection messages each frontier vertex emits during the
	// modeRepair superstep. Nil for ordinary runs.
	repair *repairPlan
	// repairBudget bounds the repair run's body supersteps (RunDelta with
	// DeltaRunOptions.SuperstepBudget); 0 means unbounded.
	repairBudget int

	msgBytes int
}

// NewMachine prepares a machine; Run executes it. The graph must be
// compatible with the program (undirected if #neighbors is used; reverse
// adjacency is built as needed).
func NewMachine(prog *core.Program, g *graph.Graph, opts RunOptions) (*Machine, error) {
	if prog.MaxSlotsPerGroup > MaxSlots {
		return nil, fmt.Errorf("vm: program needs %d message slots, max %d", prog.MaxSlotsPerGroup, MaxSlots)
	}
	if prog.UsesNeighbors && g.Directed() {
		return nil, fmt.Errorf("vm: program uses #neighbors but the graph is directed")
	}
	if prog.UsesIn || prog.UsesNeighbors {
		g.BuildReverse()
	}
	m := &Machine{
		prog:   prog,
		g:      g,
		stride: len(prog.Layout.Fields),
	}
	m.params = make([]float64, len(prog.Params))
	for i, p := range prog.Params {
		m.params[i] = p.Default
		if v, ok := opts.Params[p.Name]; ok {
			m.params[i] = v
		}
	}
	for name := range opts.Params { //lint:allow maprange — validation; any unknown name is an equivalent error
		if _, ok := paramIndex(prog, name); !ok {
			return nil, fmt.Errorf("vm: unknown param %q", name)
		}
	}
	m.state = make([]float64, g.NumVertices()*m.stride)
	if prog.Mode == core.MemoTable {
		m.tables = make([][]map[graph.VertexID]float64, len(prog.Sites))
		for i := range m.tables {
			m.tables[i] = make([]map[graph.VertexID]float64, g.NumVertices())
		}
	}
	m.iterations = make([]int, len(prog.Phases))
	m.msgBytes = MessageBytes(prog)
	m.redirects = make([][]int, len(prog.Sites))
	for _, s := range prog.Sites {
		if s.OldSlots == nil {
			continue
		}
		r := make([]int, m.stride)
		for slot := range r {
			r[slot] = slot
		}
		for i, f := range s.Fields {
			r[f] = s.OldSlots[i]
		}
		m.redirects[s.ID] = r
	}
	m.master = m.newEvaluator()
	m.groupSites = make([][]*core.AggSite, len(prog.Groups))
	m.groupWeighted = make([]bool, len(prog.Groups))
	for _, g := range prog.Groups {
		for _, sid := range g.Sites {
			s := prog.Sites[sid]
			m.groupSites[g.ID] = append(m.groupSites[g.ID], s)
			m.groupWeighted[g.ID] = m.groupWeighted[g.ID] || s.UsesWeight
		}
	}
	return m, nil
}

func paramIndex(p *core.Program, name string) (int, bool) {
	for i, ps := range p.Params {
		if ps.Name == name {
			return i, true
		}
	}
	return 0, false
}

// MessageBytes returns the wire size the compiled program's messages are
// accounted at: group tag + one 8-byte value per slot, plus a tag byte when
// any multiplicative site exists, plus the sender id in MemoTable mode
// (the §4.2.1 "tagged with the sending vertex's id" overhead).
func MessageBytes(p *core.Program) int {
	n := 1 + 8*max(1, p.MaxSlotsPerGroup)
	for _, s := range p.Sites {
		if s.Multiplicative() {
			n++
			break
		}
	}
	if p.Mode == core.MemoTable {
		n += 4
	}
	return n
}

// Run executes the program to completion. It is RunContext with a
// background context.
func Run(prog *core.Program, g *graph.Graph, opts RunOptions) (*Result, error) {
	return RunContext(context.Background(), prog, g, opts)
}

// RunContext executes the program until completion or until ctx aborts the
// run. On an abort (cancellation, deadline, or a panic contained by the
// engine) the returned Result is non-nil and carries the partial run
// statistics and whatever field state had been computed.
func RunContext(ctx context.Context, prog *core.Program, g *graph.Graph, opts RunOptions) (*Result, error) {
	m, err := NewMachine(prog, g, opts)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx, opts)
}

// Run executes the machine. It may only be called once.
func (m *Machine) Run(opts RunOptions) (*Result, error) {
	return m.RunContext(context.Background(), opts)
}

// RunContext executes the machine under ctx. It may only be called once.
// Like the engine's RunContext, an aborted run returns partial results: the
// Result is non-nil whenever the engine produced statistics, and the error
// reports the abort cause (a *pregel.RunError for contained panics —
// including panics raised by the ΔV evaluator's own error paths, which this
// converts into errors callers can test for instead of process crashes).
func (m *Machine) RunContext(ctx context.Context, opts RunOptions) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("vm: Machine.Run called twice")
	}
	m.ran = true
	return m.execute(ctx, opts, nil, &globals{Phase: 0, Mode: modePrime})
}

// ResumeContext continues a run from snap, a barrier snapshot taken by a
// previous run of the same compiled program (same mode) on the same graph:
// the machine payload and the engine state are both validated, then the
// run continues at the snapshot's superstep + 1 (a Done snapshot
// rehydrates the finished run and executes nothing).
func ResumeContext(ctx context.Context, prog *core.Program, g *graph.Graph, opts RunOptions, snap *pregel.Snapshot) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("vm: resume needs a snapshot")
	}
	m, err := NewMachine(prog, g, opts)
	if err != nil {
		return nil, err
	}
	// Validate graph identity before decoding the machine payload so a
	// wrong-graph snapshot fails with the engine's mismatch error, not a
	// confusing state-size complaint.
	if snap.Fingerprint != g.Fingerprint() {
		return nil, fmt.Errorf("vm: %w: snapshot was taken on a different graph", pregel.ErrSnapshotMismatch)
	}
	gl, err := m.restoreExtra(snap.Extra, g.NumVertices())
	if err != nil {
		return nil, err
	}
	return m.execute(ctx, opts, pregel.Continue(snap), gl)
}

// execute runs the machine on a fresh engine started from seed (nil: from
// scratch) with master state gl.
func (m *Machine) execute(ctx context.Context, opts RunOptions, seed *pregel.Seed, gl *globals) (*Result, error) {
	if opts.MaxSupersteps <= 0 {
		opts.MaxSupersteps = 100_000
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m.runCtx = ctx
	// The Extra closure captures eng by reference: the engine only invokes
	// it mid-run, after New below has assigned it.
	var eng *pregel.Engine[VState, Msg]
	ckpt := opts.Checkpoint
	if ckpt.Dir != "" || ckpt.Sink != nil {
		ckpt.Extra = func(dst []byte) []byte {
			return m.encodeExtra(dst, eng.Globals().(*globals))
		}
	}
	eng = pregel.New[VState, Msg](m.g, pregel.Options{
		Workers:       opts.Workers,
		Scheduler:     opts.Scheduler,
		MaxSupersteps: opts.MaxSupersteps,
		Checkpoint:    ckpt,
		Seed:          seed,
		Quarantine:    opts.Quarantine,
		Shard:         opts.Shard,
	})
	eng.SetMessageSize(m.msgBytes)
	eng.SetValueCodec(vstateCodec{})
	eng.SetMessageCodec(msgCodec{})
	var err error
	if m.unchangedAgg, err = eng.RegisterAggregator(aggUnchanged, pregel.AggAnd, false); err != nil {
		return nil, err
	}
	m.evs = make([]*evaluator, eng.Workers())
	for w := range m.evs {
		m.evs[w] = m.newEvaluator()
	}
	if opts.Combine {
		if c := m.combiner(); c != nil {
			eng.SetCombiner(c)
		}
	}
	eng.SetGlobals(gl)
	eng.SetMasterHook(m.masterHook)
	stats, err := eng.RunContext(ctx, m)
	// The evaluators point into the engine through their contexts; the
	// machine outlives the run (Result holds it) and the engine must not.
	m.evs = nil
	if stats == nil {
		return nil, err
	}
	if err == nil {
		// The engine gathered its vertex values, but the VM's field state
		// lives in m.state: a successful sharded run all-gathers the owned
		// rows so Result fields read whole on every shard.
		if gerr := m.gatherShardState(eng); gerr != nil {
			err = gerr
		}
	}
	res := &Result{
		Stats:            stats,
		Iterations:       m.iterations,
		NonMonotoneSends: m.nonMonotone.Load(),
		machine:          m,
	}
	if err != nil {
		return res, err
	}
	if m.masterErr != nil {
		return res, m.masterErr
	}
	if res.end, err = eng.Snapshot(); err != nil {
		return res, err
	}
	res.endGlobals = eng.Globals().(*globals)
	return res, nil
}

const aggUnchanged = "$unchanged"

// gatherShardState all-gathers the machine's flat state rows after a
// successful sharded run: each shard broadcasts its owned vertex range
// [lo, hi) as u32 bounds plus (hi-lo)·stride little-endian float64s and
// copies every peer's rows into place. A no-op unsharded.
func (m *Machine) gatherShardState(eng *pregel.Engine[VState, Msg]) error {
	if _, count := eng.ShardInfo(); count <= 1 {
		return nil
	}
	lo, hi := eng.ShardOwnedRange()
	buf := make([]byte, 0, 8+(hi-lo)*m.stride*8)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lo))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hi))
	for _, v := range m.state[lo*m.stride : hi*m.stride] {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	idx, _ := eng.ShardInfo()
	payloads, err := eng.ShardAllGather(buf)
	if err != nil {
		return fmt.Errorf("vm: state gather: %w", err)
	}
	n := m.g.NumVertices()
	for i, p := range payloads {
		if i == idx {
			continue
		}
		if len(p) < 8 {
			return fmt.Errorf("vm: state gather: short payload from shard %d", i)
		}
		plo := int(binary.LittleEndian.Uint32(p))
		phi := int(binary.LittleEndian.Uint32(p[4:]))
		rows := p[8:]
		if plo > phi || phi > n || len(rows) != (phi-plo)*m.stride*8 {
			return fmt.Errorf("vm: state gather: shard %d sent %d bytes for range [%d, %d)", i, len(rows), plo, phi)
		}
		for j := 0; j < (phi-plo)*m.stride; j++ {
			m.state[plo*m.stride+j] = math.Float64frombits(binary.LittleEndian.Uint64(rows[8*j:]))
		}
	}
	return nil
}

// FieldValue returns vertex u's current value of a layout field by name.
func (m *Machine) FieldValue(name string, u graph.VertexID) float64 {
	slot := m.prog.Layout.Slot(name)
	if slot < 0 {
		panic(fmt.Sprintf("vm: unknown field %q", name))
	}
	return m.state[int(u)*m.stride+slot]
}

// StateBytes reports the per-vertex state size: the compiled layout plus,
// in MemoTable mode, the measured average lookup-table footprint (id +
// value per cached neighbour), which is the §4.2.1 memory blow-up.
func (m *Machine) StateBytes() float64 {
	base := float64(m.prog.Layout.ByteSize())
	if m.tables == nil {
		return base
	}
	entries := 0
	for _, per := range m.tables {
		for _, t := range per {
			entries += len(t)
		}
	}
	n := m.g.NumVertices()
	if n == 0 {
		return base
	}
	return base + float64(entries*12)/float64(n)
}

// Init runs at superstep 0 on every vertex: default-initialize the
// synthesized fields, evaluate the init{} body, and prime phase 0's send
// groups with full slot values.
func (m *Machine) Init(ctx *pregel.Context[VState, Msg]) {
	ev := m.vertexEvaluator(ctx, nil, 0)
	for i, f := range m.prog.Layout.Fields {
		m.state[ev.base+i] = m.fieldDefault(f)
	}
	ev.eval(m.prog.Init)
	if len(m.prog.Phases) > 0 {
		m.primeSends(ev, 0)
	}
	// The master activates all vertices for the first body superstep, so
	// halting after the prime is always sound.
	ctx.VoteToHalt()
}

func (m *Machine) fieldDefault(f core.FieldSpec) float64 {
	switch f.Kind {
	case core.AccField, core.NNAccField:
		return core.Identity(m.prog.Sites[f.Ref].Op)
	case core.NullsField:
		return 0
	case core.LastNNField:
		return 1 // multiplicative identity: first non-null Δ is the raw value
	case core.DirtyField:
		return 1 // pre-set, §6.3
	default:
		return 0
	}
}

// Compute runs a vertex at supersteps >= 1.
func (m *Machine) Compute(ctx *pregel.Context[VState, Msg], msgs []Msg) {
	gl := ctx.Globals().(*globals)
	switch gl.Mode {
	case modePrime:
		// Messages in flight at a prime superstep belong to the previous,
		// finished phase; they are dropped (see package docs).
		m.primeSends(m.vertexEvaluator(ctx, msgs, gl.Iter), gl.Phase)
		ctx.VoteToHalt()
	case modeBody:
		ev := m.vertexEvaluator(ctx, msgs, gl.Iter)
		ev.eval(m.prog.Phases[gl.Phase].Body)
		ctx.Aggregate(m.unchangedAgg, boolTo01(!ev.changed))
		// Halting is performed by the Halt node for incremental programs;
		// non-halting programs stay active for the next body superstep.
	case modeRepair:
		// Emit the precomputed retraction/injection messages for this
		// vertex's mutated arcs. Pure senders halt; vertices flagged by the
		// planner (memo-table surgery receivers) stay active so the next
		// body superstep refolds their state even if no message wakes them.
		u := ctx.ID()
		for _, ps := range m.repair.sends[u] {
			ctx.Send(ps.dest, ps.msg)
		}
		if !m.repair.keepActive[u] {
			ctx.VoteToHalt()
		}
	}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// primeSends implements the initial full-value send of §6.1 ("at the first
// superstep send the data from the neighbors' perspective") for every send
// group of a phase, records the sent values as the most-recently-sent
// state, and clears the dirty bits.
func (m *Machine) primeSends(ev *evaluator, phase int) {
	for _, gid := range m.prog.Phases[phase].Groups {
		m.primeGroup(ev, m.prog.Groups[gid])
	}
}

func (m *Machine) primeGroup(ev *evaluator, g *core.SendGroup) {
	it := ev.pushIter(g.PushDir)
	if !m.groupWeighted[g.ID] {
		// Edge-independent payload: build once, broadcast (Eq. 7 lift).
		if msg, sendIt := ev.fullMsg(g, 1); sendIt {
			for it.Next() {
				ev.ctx.Send(it.To(), msg)
			}
		}
	} else {
		for it.Next() {
			if msg, sendIt := ev.fullMsg(g, it.Weight()); sendIt {
				ev.ctx.Send(it.To(), msg)
			}
		}
	}
	m.recordPrimed(ev, g)
}

// recordPrimed records, after a group's full-value send (or in place of one,
// for a vertex a delta run adds), what receivers now believe (§6.2), and
// resets the dirty bit.
func (m *Machine) recordPrimed(ev *evaluator, g *core.SendGroup) {
	if g.DirtySlot >= 0 {
		m.state[ev.base+g.DirtySlot] = 0
	}
	for _, s := range m.groupSites[g.ID] {
		for i, fslot := range s.Fields {
			if s.OldSlots != nil {
				m.state[ev.base+s.OldSlots[i]] = m.state[ev.base+fslot]
			}
		}
		if s.LastNNSlot >= 0 {
			ev.curWeight = 1
			if v := ev.eval(s.SlotExpr); v != 0 {
				m.state[ev.base+s.LastNNSlot] = v
			}
		}
	}
}

// fullMsg assembles a group's full-value message for an arc of weight w;
// the second result is false when the message cannot affect any accumulator.
func (ev *evaluator) fullMsg(g *core.SendGroup, w float64) (Msg, bool) {
	sites := ev.m.groupSites[g.ID]
	msg := Msg{Group: uint8(g.ID), NVals: uint8(len(sites)), Sender: ev.u}
	noop := true
	for i, s := range sites {
		ev.curWeight = w
		v := ev.eval(s.SlotExpr)
		msg.Vals[i] = v
		if s.Multiplicative() {
			if abs, _ := core.Absorbing(s.Op); v == abs {
				msg.TagNull |= 1 << i
				noop = false
				continue
			}
		}
		if v != core.Identity(s.Op) {
			noop = false
		}
	}
	// An all-identity message cannot affect any accumulator; receivers'
	// caches already agree (Def. 1's initial coherence), so it is never
	// meaningful — except to a lookup table, which records every sender.
	return msg, !noop || g.Strategy == core.StrategyTable
}

// newEvaluator returns an evaluator with its scratch sized for the program,
// aimed at no vertex yet.
func (m *Machine) newEvaluator() *evaluator {
	return &evaluator{m: m, lets: make([]float64, m.prog.MaxLetDepth)}
}

// vertexEvaluator re-aims the calling worker's evaluator at ctx's vertex.
func (m *Machine) vertexEvaluator(ctx *pregel.Context[VState, Msg], msgs []Msg, iter int) *evaluator {
	ev := m.evs[ctx.Worker()]
	u := ctx.ID()
	*ev = evaluator{m: m, ctx: ctx, u: u, base: int(u) * m.stride, lets: ev.lets, msgs: msgs, iter: iter, foldKeys: ev.foldKeys}
	clear(ev.lets)
	return ev
}
