// Package pregel implements a Pregel-style Bulk Synchronous Parallel
// vertex-centric execution engine, the substrate the paper compiles ΔV
// programs to (it plays the role Pregel+ plays in the paper).
//
// A computation proceeds in supersteps. Superstep 0 runs the program's Init
// on every vertex; subsequent supersteps run Compute on every active vertex
// with the messages addressed to it in the previous superstep. A vertex
// halts by voting to halt and is reawakened by any incoming message. The
// computation terminates when every vertex is halted and no messages are in
// flight (or a master hook or the superstep limit stops it).
//
// The engine is generic over the vertex value type V and the message type
// M. Vertices are partitioned into contiguous blocks, one block per worker
// goroutine; message exchange happens through per-worker-pair outboxes that
// are swapped at the superstep barrier, so no locks are taken on the hot
// path. Message counts are tracked both before and after the optional
// sender-side combiner, matching the two message metrics reported in the
// paper's evaluation.
package pregel

import (
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
)

// VertexID aliases graph.VertexID for convenience.
type VertexID = graph.VertexID

// Program is a vertex-centric computation. A cold superstep 0 calls its
// optional InitRange(worker int, lo, hi VertexID) (run []VertexID, ok bool)
// once per worker block [lo, hi) instead of Init: with ok, the program has
// put every vertex of the block but run's (ascending) in the state Init
// leaves, halted and unsent, and the engine counts the block as run and
// calls Init on run only.
type Program[V, M any] interface {
	// Init runs on every vertex at superstep 0, before any communication.
	Init(ctx *Context[V, M])
	// Compute runs on every active vertex at supersteps >= 1 with the
	// messages sent to it during the previous superstep.
	Compute(ctx *Context[V, M], msgs []M)
}

// Combiner merges messages addressed to the same destination vertex before
// they leave the sending worker. Messages are partitioned into a small dense
// space of classes — a message channel, a send group — and only messages of
// one class to one vertex are merged; the engine sizes its combining table
// by Classes, so keep it a handful.
type Combiner[M any] interface {
	// Combine folds m into acc in place. It must be commutative and
	// associative, and must leave acc's class unchanged.
	Combine(acc, m *M)
	// Classes is the size of the class space, at least 1.
	Classes() int
	// Class returns m's class in [0, Classes()), or a negative value for a
	// message that is delivered as sent, never combined.
	Class(m *M) int
}

// CombinerFunc adapts a function over scalar messages to the Combiner
// interface: one class, every message combinable.
type CombinerFunc[M any] func(a, b M) M

// Combine implements Combiner.
func (f CombinerFunc[M]) Combine(acc, m *M) { *acc = f(*acc, *m) }

// Classes implements Combiner.
func (f CombinerFunc[M]) Classes() int { return 1 }

// Class implements Combiner.
func (f CombinerFunc[M]) Class(*M) int { return 0 }

// Scheduler selects how workers find the vertices to run each superstep.
type Scheduler int

const (
	// ScanAll scans every local vertex's state and runs those that are
	// active or have pending messages. This is how Pregel+ behaves and is
	// the default. The scan reads the worker's active, removed and
	// has-mail bitsets 64 vertices a word, so a thin frontier costs
	// |block|/64 words a superstep, not |block| vertices.
	ScanAll Scheduler = iota
	// WorkQueue keeps an explicit per-worker queue of runnable vertices,
	// fed by message arrivals and non-halting vertices — the
	// halt-by-default scheduler sketched in the paper's future work (§9).
	WorkQueue
)

// Options configure a run.
type Options struct {
	// Workers is the number of worker goroutines. Defaults to
	// GOMAXPROCS, capped by the number of vertices.
	Workers int
	// MaxSupersteps aborts the run after this many supersteps (counting
	// Init as superstep 0). Defaults to 10_000. Zero means the default.
	MaxSupersteps int
	// Scheduler selects the active-vertex discovery strategy.
	Scheduler Scheduler
	// Checkpoint enables barrier snapshots when it requests any output
	// (Dir and/or Sink set): periodic snapshots every Every supersteps,
	// plus a final snapshot at the terminal barrier and on every
	// cancellation/deadline abort. See CheckpointOptions.
	Checkpoint CheckpointOptions
	// Seed is the state the run starts from; nil is a cold start at
	// superstep 0. See Seed, Continue and Warm.
	Seed *Seed
	// Shard, when non-nil with Count > 1, places this engine in a
	// multi-process sharded run: this process executes only its shard's
	// contiguous worker range and exchanges messages, aggregator
	// partials, quarantined vertices and statistics with its peers over
	// Shard.Transport at the superstep barriers. The merged run is
	// bit-identical to an in-process run with the same total Workers
	// count, whatever the other options. Requires an explicit Workers
	// value identical on every shard. See ShardOptions.
	Shard *ShardOptions
	// Quarantine contains a panic raised inside a single vertex's
	// Init/Compute to that vertex instead of aborting the run: the panic
	// is recovered at the call site, every message the vertex sent during
	// the panicking call is retracted (its outbox marks are rolled back,
	// so a half-emitted broadcast cannot corrupt downstream
	// accumulators), the vertex is removed from the computation exactly
	// as if it had called RemoveSelf, and the superstep continues.
	// Quarantined vertices are recorded in Stats.Quarantined /
	// Stats.QuarantinedVertices; their values freeze (any writes the
	// panicking call made before the panic persist, like RemoveSelf)
	// and pending or future messages addressed to them are dropped.
	// Sharded, the owning shard does all of this, and barrier 1 carries
	// the quarantined ids so every shard's Stats list the same vertices.
	// Panics outside a vertex program — combiners, the exchange phase,
	// master hooks — are not attributable to one vertex and still abort
	// the run with a *RunError. This is the resident-server posture: a
	// poisoned vertex program must not take down a long-lived serving
	// process (see DESIGN.md "Serving").
	Quarantine bool
}

// StepStats records one superstep.
type StepStats struct {
	Superstep        int
	ActiveVertices   int // vertices that ran Compute (or Init, or at superstep 0 that InitRange started)
	MessagesSent     int // vertex-level sends
	CombinedMessages int // envelopes delivered after combining
	CrossWorker      int // delivered envelopes that crossed workers
	Duration         time.Duration
}

// Stats aggregates a whole run. On an aborted run (cancellation, a context
// deadline, or a recovered panic) Stats holds everything accumulated up
// to the abort point — Steps has one entry per completed superstep — and
// Aborted/AbortReason record why the run stopped early.
type Stats struct {
	Supersteps       int
	MessagesSent     int64
	CombinedMessages int64
	CrossWorker      int64 // delivered envelopes that crossed worker boundaries
	MessageBytes     int64
	TotalActive      int64 // sum over supersteps of vertices run
	Duration         time.Duration
	Steps            []StepStats
	// Aborted is true when the run stopped before reaching quiescence,
	// a master Stop, or the superstep limit: the context was cancelled or
	// its deadline passed, or user code panicked.
	Aborted bool
	// AbortReason is a human-readable cause, set iff Aborted.
	AbortReason string
	// CheckpointPath names the most recent chain record written into
	// Options.Checkpoint.Dir (empty when checkpointing to a Dir is off or
	// no snapshot was taken yet); LoadChain(CheckpointPath) loads the
	// snapshot it completes. After an abort it points at resumable
	// state — except after a contained panic (*RunError), where it still
	// names the last periodic snapshot but no fresh one is taken, because
	// the panicking superstep left the barrier inconsistent.
	CheckpointPath string
	// CheckpointSuperstep is the superstep captured by the most recent
	// snapshot this run wrote (to Dir or Sink), or -1 when none was. It
	// can trail Supersteps: after a panic abort, CheckpointPath names the
	// last periodic snapshot, which may be many supersteps behind the
	// abort point — resume from this superstep, not from Supersteps.
	CheckpointSuperstep int
	// CheckpointBytes totals the encoded snapshot bytes this run wrote:
	// the chain records in Checkpoint.Dir — a converged-then-repaired
	// run's records shrink to O(touched) — or, without a Dir, the full
	// snapshots written to the Sink.
	CheckpointBytes int64
	// Quarantined counts vertices whose Init/Compute panicked under
	// Options.Quarantine and were skipped + removed instead of aborting
	// the run; QuarantinedVertices lists them in the order they were
	// recorded (worker order within a superstep, supersteps in run
	// order). Both stay zero when Quarantine is off. A run resumed from a
	// snapshot (Continue) counts only the vertices quarantined after its
	// seed barrier: the snapshot does not say which removed vertices were
	// quarantined before it.
	Quarantined         int
	QuarantinedVertices []VertexID
}

// String summarizes the run statistics.
func (s Stats) String() string {
	base := fmt.Sprintf("supersteps=%d msgs=%d combined=%d bytes=%d active=%d time=%v",
		s.Supersteps, s.MessagesSent, s.CombinedMessages, s.MessageBytes, s.TotalActive, s.Duration)
	if s.Quarantined > 0 {
		base += fmt.Sprintf(" quarantined=%d", s.Quarantined)
	}
	if s.Aborted {
		base += fmt.Sprintf(" aborted=%q", s.AbortReason)
	}
	return base
}

// AggregatorOp is the reduction used by a master aggregator.
type AggregatorOp int

// Aggregator reductions.
const (
	AggSum AggregatorOp = iota
	AggMin
	AggMax
	AggAnd // logical AND over (v != 0)
	AggOr  // logical OR over (v != 0)
)

type aggregator struct {
	op         AggregatorOp
	persistent bool
	value      float64 // committed value visible to vertices
	pending    float64 // being accumulated this superstep
}

func aggIdentity(op AggregatorOp) float64 {
	switch op {
	case AggSum:
		return 0
	case AggMin:
		return inf
	case AggMax:
		return -inf
	case AggAnd:
		return 1
	case AggOr:
		return 0
	}
	return 0
}

var inf = math.Inf(1)

func aggReduce(op AggregatorOp, a, b float64) float64 {
	switch op {
	case AggSum:
		return a + b
	case AggMin:
		if b < a {
			return b
		}
		return a
	case AggMax:
		if b > a {
			return b
		}
		return a
	case AggAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case AggOr:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	}
	return a
}
