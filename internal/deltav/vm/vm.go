// Package vm executes compiled ΔV programs (core.Program) on the Pregel
// engine. It plays the role of the Pregel+ compute() function the paper's
// compiler emits: the statement list runs as a master-driven state machine,
// each vertex runs the lowered statement bodies (core.Lowered: the receive
// loops, change checks, Δ-message sends and halts the passes inserted, as
// closures built once per machine), and the master evaluates until{}
// conditions with an incrementally maintained fixpoint aggregator. The code
// generator prints the same lowered program as Go source.
package vm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// VState is the engine-side vertex value; the Machine keeps all ΔV vertex
// state in its own flat arrays, so this is empty.
type VState struct{}

// MaxSlots is the widest supported message (aggregation sites per send
// group), and the slot count of the fixed 40-byte record that checkpoints
// and the shard wire carry every message in, whatever its kind or width.
const MaxSlots = 4

// Msg is one ΔV message: the values of a send group's slots, with the
// §6.4.1 nullary/previous-nullary tag bits, and the sender id for the
// §4.2.1 lookup-table mode. P is the payload: a machine picks the narrowest
// width its widest send group fits (1 or MaxSlots slots). A program
// whose one send group needs no group, tag or sender sends no Msg at all,
// only its bare float64 payload (kind.go).
type Msg[P payload] struct {
	Group   uint8
	NVals   uint8
	TagNull uint8 // bit i: slot i carries a nullary value
	TagPrev uint8 // bit i: slot i's previous message was nullary
	Sender  graph.VertexID
	Vals    P
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
	// pregel.ShardOptions); every other option composes with it. Every
	// shard runs the same compiled program over the same graph with
	// identical options; after a successful run the machine's state rows
	// are all-gathered (pregel.GatherRows) so Result fields are whole on
	// every shard. Requires an explicit Workers value identical on every
	// shard.
	Shard *pregel.ShardOptions
	// closures compiles every receive and send to closures, not kernels.
	closures bool
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
// not finish. Its bytes are the result's own, the machine payload
// included, which on a little-endian host is the machine state with the
// header in front (see newState): treat the snapshot as read-only.
func (r *Result) Snapshot() *pregel.Snapshot {
	if r.end == nil {
		return nil
	}
	s := *r.end
	if m := r.machine; m.extra != nil {
		s.Extra = m.extra[:len(m.extra):len(m.extra)]
	} else {
		s.Extra = m.encodeExtra(nil, r.endGlobals)
	}
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
	m := r.machine
	slot := m.prog.Layout.Slot(name)
	if slot < 0 {
		return nil, fmt.Errorf("%w %q", ErrUnknownField, name)
	}
	out := make([]float64, m.g.NumVertices())
	for u := range out {
		out[u] = m.state[u*m.stride+slot]
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
	// extra, when not nil, holds state in the layout of the snapshot
	// payload (see newState).
	extra []byte

	// tables[site] is the §4.2.1 per-neighbour cache: one map per vertex,
	// allocated lazily. Only non-nil in MemoTable mode.
	tables [][]map[graph.VertexID]float64

	// x is the compiled program at the machine's message width;
	// unchangedAgg is the fixpoint aggregator's engine id.
	x            runner
	unchangedAgg int

	iterations  []int
	closures    bool // RunOptions.closures
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
		prog:     prog,
		g:        g,
		stride:   len(prog.Layout.Fields),
		closures: opts.closures,
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
	if prog.Mode == core.MemoTable {
		m.tables = make([][]map[graph.VertexID]float64, len(prog.Sites))
		for i := range m.tables {
			m.tables[i] = make([]map[graph.VertexID]float64, g.NumVertices())
		}
	}
	m.iterations = make([]int, len(prog.Phases))
	m.state = m.newState(g.NumVertices() * m.stride)
	m.msgBytes = MessageBytes(prog)
	m.x = newRunner(m)
	return m, nil
}

// groupSites lists a send group's sites in slot order.
func (m *Machine) groupSites(g *core.SendGroup) []*core.AggSite {
	sites := make([]*core.AggSite, len(g.Sites))
	for i, sid := range g.Sites {
		sites[i] = m.prog.Sites[sid]
	}
	return sites
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
// including panics raised while running the lowered program, which this
// converts into errors callers can test for instead of process crashes).
func (m *Machine) RunContext(ctx context.Context, opts RunOptions) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("vm: Machine.Run called twice")
	}
	m.ran = true
	return m.x.execute(ctx, opts, nil, &globals{Phase: 0, Mode: modePrime})
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
	return m.x.execute(ctx, opts, pregel.Continue(snap), gl)
}

const aggUnchanged = "$unchanged"

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

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
