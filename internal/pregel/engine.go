package pregel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"repro/internal/graph"
)

// Engine executes a Program over a Graph. Create one with New, optionally
// configure combiner/aggregators/master hook, then call Run. An Engine is
// single-use: Run may only be called once.
type Engine[V, M any] struct {
	g    *graph.Graph
	opts Options

	values []V

	workers []*worker[V, M]
	block   int // vertices per worker block

	combiner   Combiner[M]
	msgBytes   int
	aggs       map[string]*aggregator
	aggList    []*aggregator // registration order; the position is the aggregator's id
	masterHook func(*MasterContext)
	globals    any

	activateAll bool
	stopped     bool
	superstep   int
	// barrier is the last completed superstep — the one whose barrier state
	// (values, active set, inboxes, queues) the engine currently holds — or
	// -1 before any; done records whether the run terminated there. fill
	// snapshots exactly this pair.
	barrier int
	done    bool

	stats Stats
	ran   bool

	// Checkpoint machinery (see checkpoint.go). The Snapshot and encode
	// buffer are reused across captures so periodic checkpoints settle into
	// steady-state buffers instead of allocating per barrier.
	valCodec ValueCodec[V]
	msgCodec ValueCodec[M]
	snap     Snapshot
	snapBuf  []byte
	chain    *ChainWriter // opened at the first capture into Checkpoint.Dir
	captured int          // the barrier the last capture wrote, or -1

	// Sharding state (see shard.go). Always non-nil once RunContext
	// starts; an unsharded run is count 1, whose barriers do nothing.
	shard *shardState

	// Broadcast delivery (see broadcast.go): canPull is fixed when the run
	// starts, pull is this superstep's decision and pulls counts the pull
	// supersteps; inOff/inSrc is the in-source index, built at the first.
	// deliver is deliverAuto outside tests and benchmarks.
	canPull, pull bool
	deliver       delivery
	pulls         int
	inOff         []int32
	inSrc         []uint32
}

// worker owns a contiguous vertex range and all the scratch its superstep
// loop needs. Every buffer here is allocated once (in New or at the start
// of Run) and reused across supersteps, so a warmed-up steady-state
// superstep performs no heap allocation — see DESIGN.md "Message plane".
type worker[V, M any] struct {
	id     int
	lo, hi int // local vertex range [lo, hi)
	eng    *Engine[V, M]

	// Outboxes, one per destination worker, in structure-of-arrays form:
	// outTo[d][i] is the destination vertex of the i-th envelope to worker
	// d and outMsg[d][i] its payload. The count/scatter passes of exchange
	// stream over the compact outTo arrays without dragging payloads
	// through cache.
	outTo  [][]VertexID
	outMsg [][]M

	// Scheduling state of the local range as bitsets over local vertex
	// indices (vertex lo+li is bit li&63 of word li>>6): act is the active
	// set, rem the removed set and got the vertices that received mail in
	// the last exchange. They are the engine's only copy of that state, and
	// a superstep's fixed cost over them is |block|/64 words.
	act, rem, got []uint64

	// Inbox: a vertex with its got bit set reads msgBuf[msgOff[li]:msgEnd[li]],
	// laid out in vertex order; every other vertex's entries are 0:0, so the
	// next exchange resets only last superstep's receivers.
	msgOff, msgEnd []int32
	msgBuf         []M

	// WorkQueue scheduling state.
	cur, next []VertexID
	queued    []uint32
	stamp     uint32

	// Fold-at-send state (see send and useCombiner): sum is comb when it
	// is a CombinerFunc; foldTab[t*classes+cl] locates the envelope of
	// class cl to vertex t in bucket ownerOf(t) while its stamp is
	// foldEpoch; pend is the message the combiner reads; combining is set
	// while a quarantined run's combiner runs.
	comb      Combiner[M]
	sum       CombinerFunc[M]
	classes   int
	foldTab   []combEntry
	foldEpoch uint32
	pend      M
	combining bool

	// Broadcast record (see broadcast.go): while recording, bval[li] is the
	// value vertex lo+li broadcast if its bmark bit is set, blist lists the
	// marked vertices in record order and barcs sums their out-degrees.
	// Sized at the worker's first broadcast; arcBuf is pushOut's decode
	// scratch.
	recording bool
	bval      []M
	bmark     []uint64
	blist     []VertexID
	barcs     int
	arcBuf    []VertexID

	ctx Context[V, M]

	// Panic containment: step() recovers panics raised in compute or
	// exchange into panicErr, which the master reads after the barrier
	// (the WaitGroup wait orders the accesses). inVertex is true exactly
	// while a vertex's Init/Compute is on the stack, so a recovered
	// compute-phase panic can be attributed to ctx.id.
	panicErr *RunError
	inVertex bool

	// Quarantine scratch (Options.Quarantine only): sendMark records the
	// per-destination outbox lengths before each vertex call, and the undo
	// log that call's folds and opened cells, so a panicking vertex's sends
	// can be retracted; quarantined collects the vertices recovered this
	// superstep (the master drains it after the compute barrier).
	sendMark    []int
	undoFolds   []foldUndo[M]
	undoCells   []int
	quarantined []VertexID

	// Per-superstep partial stats.
	sent       int
	ran        int
	delivered  int
	cross      int
	nextActive int

	// Pending aggregator contributions, dense over registration order.
	aggPend []float64
	aggSeen []bool
}

// combEntry is one cell of a worker's fold table.
type combEntry struct {
	stamp uint32
	slot  int32
}

// foldUndo is an undo-log entry: slot of bucket d held old before a fold.
type foldUndo[M any] struct {
	d, slot int32
	old     M
}

// New creates an Engine over g with the given options.
func New[V, M any](g *graph.Graph, opts Options) *Engine[V, M] {
	n := g.NumVertices()
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers > n && n > 0 {
		opts.Workers = n
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.MaxSupersteps <= 0 {
		opts.MaxSupersteps = 10_000
	}
	var zero M
	e := &Engine[V, M]{
		g:        g,
		opts:     opts,
		values:   make([]V, n),
		aggs:     map[string]*aggregator{},
		msgBytes: int(unsafe.Sizeof(zero)),
		block:    (n + opts.Workers - 1) / opts.Workers,
		barrier:  -1,
		captured: -1,
	}
	if e.block == 0 {
		e.block = 1
	}
	for w := 0; w < opts.Workers; w++ {
		// Trailing workers may be empty.
		lo := min(w*e.block, n)
		hi := min(lo+e.block, n)
		wk := &worker[V, M]{
			id:     w,
			lo:     lo,
			hi:     hi,
			eng:    e,
			outTo:  make([][]VertexID, opts.Workers),
			outMsg: make([][]M, opts.Workers),
		}
		words := (hi - lo + 63) / 64
		wk.act = make([]uint64, words)
		wk.rem = make([]uint64, words)
		wk.got = make([]uint64, words)
		wk.msgOff = make([]int32, hi-lo)
		wk.msgEnd = make([]int32, hi-lo)
		wk.queued = make([]uint32, hi-lo)
		wk.ctx = Context[V, M]{eng: e, w: wk}
		e.workers = append(e.workers, wk)
	}
	return e
}

// SetCombiner installs a sender-side message combiner.
func (e *Engine[V, M]) SetCombiner(c Combiner[M]) { e.combiner = c }

// SetMessageSize overrides the per-message byte accounting (defaults to
// unsafe.Sizeof(M)).
func (e *Engine[V, M]) SetMessageSize(bytes int) { e.msgBytes = bytes }

// SetMasterHook installs fn, called at the end of every superstep (after
// message exchange, before the next superstep's compute phase).
func (e *Engine[V, M]) SetMasterHook(fn func(*MasterContext)) { e.masterHook = fn }

// SetGlobals installs a value visible read-only to every vertex via
// Context.Globals. The master hook may replace it between supersteps.
func (e *Engine[V, M]) SetGlobals(g any) { e.globals = g }

// RegisterAggregator registers a master aggregator and returns its dense id,
// the handle Context.Aggregate takes: names are resolved here, once, so the
// per-vertex contribution path is free of string-keyed maps. Persistent
// aggregators must use AggSum; their value carries across supersteps and
// vertex contributions are treated as adjustments.
func (e *Engine[V, M]) RegisterAggregator(name string, op AggregatorOp, persistent bool) (int, error) {
	if persistent && op != AggSum {
		return 0, fmt.Errorf("pregel: persistent aggregator %q must use AggSum", name)
	}
	if _, dup := e.aggs[name]; dup {
		return 0, fmt.Errorf("pregel: duplicate aggregator %q", name)
	}
	a := &aggregator{op: op, persistent: persistent, value: aggIdentity(op), pending: aggIdentity(op)}
	e.aggs[name] = a
	e.aggList = append(e.aggList, a)
	return len(e.aggList) - 1, nil
}

// Values returns the vertex values; valid after Run.
func (e *Engine[V, M]) Values() []V { return e.values }

// Value returns vertex u's value; valid after Run.
func (e *Engine[V, M]) Value(u VertexID) V { return e.values[u] }

// Workers returns the worker count the engine settled on in New.
func (e *Engine[V, M]) Workers() int { return e.opts.Workers }

// Graph returns the underlying graph.
func (e *Engine[V, M]) Graph() *graph.Graph { return e.g }

// AggregatorValue returns the committed value of a registered aggregator.
func (e *Engine[V, M]) AggregatorValue(name string) float64 {
	a, ok := e.aggs[name]
	if !ok {
		panic(fmt.Sprintf("pregel: unknown aggregator %q", name))
	}
	return a.value
}

// ownerOf returns the worker whose contiguous block holds v.
func (e *Engine[V, M]) ownerOf(v VertexID) int { return int(v) / e.block }

type workerCmd int

const (
	cmdCompute workerCmd = iota
	cmdReplay            // push the recorded broadcasts (see broadcast.go)
	cmdExchange
	cmdStop
)

// Run executes prog to completion and returns the run statistics. It is
// RunContext with a background context.
func (e *Engine[V, M]) Run(prog Program[V, M]) (*Stats, error) {
	return e.RunContext(context.Background(), prog)
}

// RunContext executes prog to completion, or until ctx is cancelled or
// its deadline passes, or user code panics. The context is checked at the
// superstep barriers only — before each superstep's compute phase and
// again between compute and exchange — so an abort on the context stops
// at a consistent cut, and a Compute call that never returns cannot be
// preempted. A sharded run defers every context abort to the
// post-exchange barrier, where all shards stop at the same superstep.
// Panics raised by Program.Init/Compute, a Combiner, or the master hook
// are recovered into a *RunError (which the returned error wraps or is)
// instead of crashing the process; the worker pool shuts down cleanly in
// every case.
//
// On any abort the returned *Stats is non-nil and holds the statistics
// accumulated so far, with Aborted set and AbortReason describing the
// cause. An empty graph completes immediately with the same Stats shape as
// a zero-superstep run — non-nil Steps, a measured Duration — and, when a
// master hook is installed, fires it once with zero-valued step statistics
// so master-side finalization still happens.
func (e *Engine[V, M]) RunContext(ctx context.Context, prog Program[V, M]) (*Stats, error) {
	if e.ran {
		return nil, errors.New("pregel: Engine.Run called twice")
	}
	e.ran = true
	start := time.Now() //lint:allow timenow — stats-only wall-clock timing
	e.stats.CheckpointSuperstep = -1

	if err := e.initShard(); err != nil {
		return nil, err
	}
	sharded := e.shard.count > 1

	ckptOn := e.opts.Checkpoint.enabled()
	if ckptOn || e.opts.Seed != nil {
		if err := e.ensureCodecs(); err != nil {
			return nil, err
		}
	}

	// abort finalizes partial statistics and wraps the cause. A *RunError
	// cause is returned as-is (it already carries superstep and worker
	// attribution); everything else is wrapped with the abort superstep.
	abort := func(cause error) (*Stats, error) {
		e.stats.Aborted = true
		e.stats.AbortReason = cause.Error()
		if re, ok := cause.(*RunError); ok {
			return e.finish(start), re
		}
		return e.finish(start), fmt.Errorf("pregel: run aborted at superstep %d: %w", e.superstep, cause)
	}

	var mc *MasterContext
	if e.masterHook != nil {
		mc = &MasterContext{
			aggValue:   e.AggregatorValue,
			setGlobals: func(g any) { e.globals = g },
			getGlobals: func() any { return e.globals },
		}
	}

	if e.g.NumVertices() == 0 {
		e.stats.Steps = make([]StepStats, 0)
		e.barrier, e.done = 0, true // terminal, so Snapshot() hands out the empty end state
		if e.masterHook != nil {
			if err := e.fireMasterHook(mc, StepStats{}, 0); err != nil {
				return abort(err)
			}
		}
		return e.finish(start), nil
	}

	// Size the remaining per-run scratch now that combiner and aggregators
	// are known; nothing below allocates per superstep.
	for _, wk := range e.workers {
		wk.aggPend = make([]float64, len(e.aggList))
		wk.aggSeen = make([]bool, len(e.aggList))
		if e.combiner != nil && e.shard.owns(wk.id) {
			wk.useCombiner(e.combiner)
		}
		if e.opts.Quarantine {
			wk.sendMark = make([]int, e.opts.Workers)
		}
	}
	e.stats.Steps = make([]StepStats, 0, min(e.opts.MaxSupersteps, 4096))
	e.canPull = e.pullable()

	// One start: a cold run begins at superstep 0, where Init runs on every
	// vertex; a seeded run begins where its seed says, with the active set
	// the seed left (a seed that is already terminal runs nothing).
	startStep := 0
	e.activateAll = true
	if sd := e.opts.Seed; sd != nil {
		var err error
		if startStep, err = e.applySeed(sd); err != nil {
			return nil, err
		}
	}

	// Only this shard's workers get goroutines; the rest of e.workers are
	// stubs that barrier-1 frame decoding fills (see shard.go). Unsharded,
	// locals is all of them.
	locals := e.localWorkers()
	cmds := make([]chan workerCmd, len(locals))
	var wg sync.WaitGroup
	for i, wk := range locals {
		cmds[i] = make(chan workerCmd)
		go func(wk *worker[V, M], ch chan workerCmd) {
			for cmd := range ch {
				if cmd == cmdStop {
					wg.Done()
					return
				}
				wk.step(cmd, prog)
				wg.Done()
			}
		}(wk, cmds[i])
	}
	broadcast := func(c workerCmd) {
		wg.Add(len(cmds))
		for _, ch := range cmds {
			ch <- c
		}
		wg.Wait()
	}
	// Workers recover their own panics, so they always reach the barrier
	// and this shutdown broadcast can never deadlock, abort or not.
	defer broadcast(cmdStop)

	for e.superstep = startStep; !e.done && e.superstep < e.opts.MaxSupersteps; e.superstep++ {
		stepStart := time.Now() //lint:allow timenow — stats-only wall-clock timing
		// pendingAbort defers an abort to this superstep's post-exchange
		// barrier — where outboxes are empty and the cut is consistent —
		// which takes the final snapshot when checkpointing is on.
		var pendingAbort error
		if err := ctx.Err(); err != nil {
			if !sharded {
				if ckptOn && e.superstep > startStep {
					// State sits at the previous superstep's barrier; persist it
					// so the abort leaves a resumable snapshot behind.
					_ = e.capture()
				}
				return abort(err)
			}
			// Peer shards may already be computing this superstep, so
			// compute it too and abort at its post-exchange barrier.
			pendingAbort = err
		}
		broadcast(cmdCompute)
		if re := e.workerPanic(); re != nil {
			e.shardSignalAbort(ctrlKindBarrier1, re)
			return abort(re)
		}
		// Post-compute barrier: ship remote-destined outboxes, this shard's
		// aggregator partials and quarantined vertices, and fill the stub
		// workers with inbound frames so exchange delivers in global worker
		// order.
		if err := e.shardBarrier1(); err != nil {
			return abort(err)
		}
		e.drainQuarantined()
		e.mergeAggregators()
		if err := ctx.Err(); err != nil && pendingAbort == nil {
			if !ckptOn && !sharded {
				return abort(err)
			}
			// Sharded runs always drain to the post-exchange barrier so
			// every shard aborts at the same consistent cut.
			pendingAbort = err
		}
		if e.decideDelivery() {
			broadcast(cmdReplay)
			if re := e.workerPanic(); re != nil {
				return abort(re)
			}
		}
		broadcast(cmdExchange)
		if re := e.workerPanic(); re != nil {
			e.shardSignalAbort(ctrlKindBarrier2, re)
			return abort(re)
		}

		st := StepStats{Superstep: e.superstep}
		nextActive := 0
		for _, wk := range e.workers {
			st.MessagesSent += wk.sent
			st.ActiveVertices += wk.ran
			st.CombinedMessages += wk.delivered
			st.CrossWorker += wk.cross
			nextActive += wk.nextActive
		}
		// Post-exchange barrier: merge every shard's statistic partials so
		// the termination decision and the master hook run on identical
		// global numbers everywhere, and agree on deferred aborts.
		pendingAbort, err := e.shardBarrier2(&st, &nextActive, pendingAbort)
		if err != nil {
			return abort(err)
		}
		st.Duration = time.Since(stepStart)
		e.stats.Steps = append(e.stats.Steps, st)
		e.stats.MessagesSent += int64(st.MessagesSent)
		e.stats.CombinedMessages += int64(st.CombinedMessages)
		e.stats.CrossWorker += int64(st.CrossWorker)
		e.stats.MessageBytes += int64(st.CombinedMessages) * int64(e.msgBytes)
		e.stats.TotalActive += int64(st.ActiveVertices)
		e.stats.Supersteps++

		e.activateAll = false
		if e.masterHook != nil {
			if err := e.fireMasterHook(mc, st, nextActive); err != nil {
				return abort(err)
			}
		}
		// Terminal when the master stopped the run or at global quiescence.
		e.barrier = e.superstep
		e.done = e.stopped || (nextActive == 0 && st.CombinedMessages == 0 && !e.activateAll)
		if ckptOn {
			every := e.opts.Checkpoint.Every
			if pendingAbort != nil || e.done || (every > 0 && (e.superstep+1)%every == 0) {
				if err := e.capture(); err != nil && pendingAbort == nil {
					return abort(err)
				}
			}
		}
		if pendingAbort != nil {
			return abort(pendingAbort)
		}
		if e.done {
			break // keeps e.superstep at the terminal superstep
		}
	}
	if !e.done {
		if ckptOn && e.superstep > startStep {
			// The limit is a consistent barrier too: leave a resumable
			// snapshot so a rerun with a higher limit can continue.
			_ = e.capture()
		}
		return e.finish(start), fmt.Errorf("pregel: superstep limit %d reached", e.opts.MaxSupersteps)
	}
	// A finished sharded run gathers every shard's owned values so
	// Values() is whole on all shards.
	if err := GatherRows(e, e.values, 1, e.valCodec); err != nil {
		return abort(err)
	}
	return e.finish(start), nil
}

// finish stamps the run's duration and returns a copy of its statistics
// (Steps included, whose presized array would otherwise ride along): the
// caller may keep the result for as long as it likes without keeping the
// engine — its inboxes, outboxes and scratch — reachable.
func (e *Engine[V, M]) finish(start time.Time) *Stats {
	e.stats.Duration = time.Since(start)
	st := e.stats
	st.Steps = append(make([]StepStats, 0, len(st.Steps)), st.Steps...)
	return &st
}

// drainQuarantined folds the vertices each worker quarantined during the
// compute phase that just completed into the run statistics, in worker
// order; a sharded run's stubs hold their owners' lists from barrier 1.
// Safe to call only after the barrier's WaitGroup wait.
func (e *Engine[V, M]) drainQuarantined() {
	for _, wk := range e.workers {
		if len(wk.quarantined) == 0 {
			continue
		}
		e.stats.Quarantined += len(wk.quarantined)
		e.stats.QuarantinedVertices = append(e.stats.QuarantinedVertices, wk.quarantined...)
		wk.quarantined = wk.quarantined[:0]
	}
}

// workerPanic returns the first (lowest worker id) panic recovered during
// the barrier phase that just completed, or nil. Safe to call only after
// the barrier's WaitGroup wait.
func (e *Engine[V, M]) workerPanic() *RunError {
	for _, wk := range e.workers {
		if wk.panicErr != nil {
			return wk.panicErr
		}
	}
	return nil
}

// fireMasterHook invokes the master hook for a completed superstep and
// applies its decisions, recovering a hook panic into a *RunError so a
// buggy hook cannot crash the process.
func (e *Engine[V, M]) fireMasterHook(mc *MasterContext, st StepStats, nextActive int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{
				Worker:    MasterWorker,
				Superstep: e.superstep,
				Phase:     "master",
				Value:     r,
				Stack:     debug.Stack(),
			}
		}
	}()
	mc.step = st
	mc.nextActive = nextActive
	mc.activateAll = false
	mc.stop = false
	e.masterHook(mc)
	if mc.activateAll {
		e.activateAll = true
	}
	if mc.stop {
		e.stopped = true
	}
	return nil
}

// step dispatches one barrier phase on the worker goroutine, converting a
// panic from user code into a structured RunError instead of letting it
// kill the process. Recovering here (rather than not at all) is what keeps
// the barrier protocol deadlock-free: the worker always returns to its
// command loop and acknowledges the WaitGroup, so the master can observe
// the panic after the barrier and drain the pool with a normal stop
// broadcast.
func (w *worker[V, M]) step(cmd workerCmd, prog Program[V, M]) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		re := &RunError{
			Worker:    w.id,
			Superstep: w.eng.superstep,
			Phase:     "exchange",
			Value:     r,
			Stack:     debug.Stack(),
		}
		if cmd != cmdExchange { // a replay pushes compute's sends
			re.Phase = "compute"
			if w.inVertex {
				re.Vertex, re.HasVertex = w.ctx.id, true
				w.inVertex = false
			}
		}
		w.panicErr = re
	}()
	switch cmd {
	case cmdCompute:
		w.compute(prog)
	case cmdReplay:
		w.flushBroadcasts()
	default:
		w.exchange()
	}
}

// mergeAggregators folds every worker's dense pending array into the
// committed aggregator values. Worker order is fixed, so float reductions
// are deterministic run to run.
func (e *Engine[V, M]) mergeAggregators() {
	for _, wk := range e.workers {
		for i, seen := range wk.aggSeen {
			if !seen {
				continue
			}
			wk.aggSeen[i] = false
			a := e.aggList[i]
			a.pending = aggReduce(a.op, a.pending, wk.aggPend[i])
		}
	}
	for _, a := range e.aggList {
		if a.persistent {
			a.value += a.pending
			a.pending = 0
		} else {
			a.value = a.pending
			a.pending = aggIdentity(a.op)
		}
	}
}

// compute runs Init/Compute over this worker's runnable vertices, whose
// sends fill (and, with a combiner, fold into) the outboxes.
func (w *worker[V, M]) compute(prog Program[V, M]) {
	e := w.eng
	w.sent, w.ran = 0, 0
	w.clearOutboxes()
	w.clearRecord()
	w.recording = e.canPull
	queue := e.opts.Scheduler == WorkQueue
	if queue {
		w.stamp++
		w.next = w.next[:0]
	}
	quarantine := e.opts.Quarantine
	runVertex := func(u int) {
		w.ran++
		ctx := &w.ctx
		ctx.id = VertexID(u)
		ctx.votedHalt = false
		ctx.removeSelf = false
		w.inVertex = true
		if !quarantine {
			w.call(prog, u)
		} else if w.runGuarded(prog, u) {
			// The vertex panicked and was quarantined: its sends were
			// rolled back and it is removed; nothing else to update.
			w.inVertex = false
			return
		}
		w.inVertex = false
		li := u - w.lo
		switch {
		case ctx.removeSelf:
			setBit(w.rem, li)
			clearBit(w.act, li)
		case ctx.votedHalt:
			clearBit(w.act, li)
		default:
			setBit(w.act, li)
			if queue {
				w.enqueue(u)
			}
		}
	}
	// A cold superstep 0 lets the program start the block itself
	// (InitRange); then only the vertices it returns run Init.
	if ri, ok := prog.(interface {
		InitRange(worker int, lo, hi VertexID) (run []VertexID, ok bool)
	}); ok && e.superstep == 0 {
		if run, ok := ri.InitRange(w.id, VertexID(w.lo), VertexID(w.hi)); ok {
			w.ran += w.hi - w.lo - len(run)
			for _, u := range run {
				runVertex(int(u))
			}
			return
		}
	}
	// WorkQueue runs its queue. ScanAll, and either scheduler when every
	// vertex is activated, sweeps the bitsets a word at a time, reading a
	// word's bits once before running its vertices: a vertex only ever
	// changes its own bits, so that is the per-vertex test the loop would
	// otherwise make.
	act, got, rem := w.act, w.got[:len(w.act)], w.rem[:len(w.act)]
	if queue && !e.activateAll {
		for _, v := range w.cur {
			li := int(v) - w.lo
			if hasBit(rem, li) || (!hasBit(act, li) && !hasBit(got, li)) {
				continue
			}
			runVertex(int(v))
		}
	} else {
		for i := range act {
			m := act[i] | got[i]
			if e.activateAll {
				m = liveMask(w.hi-w.lo, i)
			}
			for m &^= rem[i]; m != 0; m &= m - 1 {
				runVertex(w.lo + i<<6 + bits.TrailingZeros64(m))
			}
		}
	}
}

// clearOutboxes empties every bucket and retires every fold-table cell.
func (w *worker[V, M]) clearOutboxes() {
	for d := range w.outTo {
		w.outTo[d] = w.outTo[d][:0]
		w.outMsg[d] = w.outMsg[d][:0]
	}
	if w.foldTab != nil {
		if w.foldEpoch++; w.foldEpoch == 0 { // uint32 wrap: stale stamps would alias
			clear(w.foldTab)
			w.foldEpoch = 1
		}
	}
}

// runGuarded invokes the vertex program under Options.Quarantine: a panic
// raised by Init/Compute is recovered here — at vertex granularity rather
// than at the superstep barrier — the vertex's partial sends are retracted
// (folds undone in reverse, cells unstamped, buckets truncated to the
// marks), its message count is restored, and the vertex is removed from
// the computation. The worker loop then continues with the next vertex, so
// one poisoned vertex cannot abort a resident run (a combiner's panic still
// does). Returns whether the vertex panicked.
func (w *worker[V, M]) runGuarded(prog Program[V, M], u int) (panicked bool) {
	for d := range w.outTo {
		w.sendMark[d] = len(w.outTo[d])
	}
	w.undoFolds, w.undoCells = w.undoFolds[:0], w.undoCells[:0]
	sent := w.sent
	defer func() {
		if w.combining || recover() == nil {
			return
		}
		panicked = true
		for i := len(w.undoFolds) - 1; i >= 0; i-- {
			f := &w.undoFolds[i]
			w.outMsg[f.d][f.slot] = f.old
		}
		for _, cell := range w.undoCells {
			w.foldTab[cell].stamp = 0 // no epoch is 0
		}
		for d := range w.outTo {
			w.outTo[d] = w.outTo[d][:w.sendMark[d]]
			w.outMsg[d] = w.outMsg[d][:w.sendMark[d]]
		}
		w.sent = sent
		setBit(w.rem, u-w.lo)
		clearBit(w.act, u-w.lo)
		w.quarantined = append(w.quarantined, VertexID(u))
	}()
	w.call(prog, u)
	return false
}

// call runs the vertex program on u, which w.ctx is already aimed at.
func (w *worker[V, M]) call(prog Program[V, M], u int) {
	if w.eng.superstep == 0 {
		prog.Init(&w.ctx)
		return
	}
	li := u - w.lo
	prog.Compute(&w.ctx, w.msgBuf[w.msgOff[li]:w.msgEnd[li]])
}

// hasBit, setBit and clearBit address bit i of a bitset.
func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func setBit(b []uint64, i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(b []uint64, i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// liveMask is the mask of word i of a bitset over n bits: all ones except
// in the last, partial word.
func liveMask(n, i int) uint64 {
	if r := n - i<<6; r < 64 {
		return 1<<uint(r) - 1
	}
	return math.MaxUint64
}

// useCombiner sizes this worker's fold table for c: one cell per
// destination vertex and class. A quarantined run folds through c guarded.
func (w *worker[V, M]) useCombiner(c Combiner[M]) {
	if w.eng.opts.Quarantine {
		c = guardedCombiner[M]{c, &w.combining}
	}
	w.comb, w.classes = c, c.Classes()
	w.sum, _ = c.(CombinerFunc[M])
	w.foldTab = make([]combEntry, w.eng.g.NumVertices()*w.classes)
}

// send appends m to the bucket of to's worker or, with a combiner, folds it
// into the envelope its (destination, class) pair has there, appending one
// only for the pair's first message (or a negative class): an envelope keeps
// its pair's first position and a slot is a left fold in send order. Not
// asking a CombinerFunc its one class is worth a seventh of a PageRank step.
// The worker's first send of a superstep pushes its recorded broadcasts
// first (see broadcast.go).
func (w *worker[V, M]) send(to VertexID, m M) {
	w.sent++
	if w.recording {
		w.flushBroadcasts()
	}
	d := w.eng.ownerOf(to)
	if w.foldTab != nil {
		cell := int(to)
		if w.sum == nil {
			w.pend = m
			cl := w.comb.Class(&w.pend)
			if cl >= w.classes {
				w.combining = true
				panic(fmt.Sprintf("pregel: Combiner.Class returned %d, Classes is %d", cl, w.classes))
			}
			cell = cell*w.classes + cl
			if cl < 0 {
				cell = -1
			}
		}
		if cell >= 0 {
			e := &w.foldTab[cell]
			if e.stamp == w.foldEpoch {
				acc := &w.outMsg[d][e.slot]
				if w.eng.opts.Quarantine {
					w.undoFolds = append(w.undoFolds, foldUndo[M]{int32(d), e.slot, *acc})
				}
				if w.sum != nil {
					*acc = w.sum(*acc, m)
				} else {
					w.comb.Combine(acc, &w.pend)
				}
				return
			}
			if w.eng.opts.Quarantine {
				w.undoCells = append(w.undoCells, cell)
			}
			e.stamp, e.slot = w.foldEpoch, int32(len(w.outTo[d]))
		}
	}
	w.outTo[d] = append(w.outTo[d], to)
	w.outMsg[d] = append(w.outMsg[d], m)
}

// guardedCombiner sets *on while a quarantined run's combiner runs, so
// runGuarded lets its panic abort the run rather than blame the sender.
type guardedCombiner[M any] struct {
	c  Combiner[M]
	on *bool
}

func (g guardedCombiner[M]) Combine(acc, m *M) { *g.on = true; g.c.Combine(acc, m); *g.on = false }
func (g guardedCombiner[M]) Classes() int      { return g.c.Classes() }
func (g guardedCombiner[M]) Class(m *M) (cl int) {
	*g.on = true
	cl = g.c.Class(m)
	*g.on = false
	return
}

// exchange gathers inbound envelopes into the per-vertex inboxes, wakes
// receivers, and counts the vertices runnable next superstep. Apart from
// the envelopes themselves it touches only receivers and, a word at a
// time, the got bitset (plus, in ScanAll, the active set): a superstep
// that delivers a handful of messages costs a handful of entries and
// |block|/64 words, not |block|. The count and scatter passes read only
// the senders' outTo arrays; payloads are touched once, during the
// scatter copy.
func (w *worker[V, M]) exchange() {
	e := w.eng
	w.delivered = 0
	w.cross = 0
	queue := e.opts.Scheduler == WorkQueue
	off, end := w.msgOff, w.msgEnd
	// Retire last superstep's inboxes, which compute has consumed.
	for i, m := range w.got {
		if m == 0 {
			continue // most words on a thin frontier: no store
		}
		w.got[i] = 0
		for ; m != 0; m &= m - 1 {
			li := i<<6 + bits.TrailingZeros64(m)
			off[li], end[li] = 0, 0
		}
	}
	if e.pull {
		w.pullInbox()
	} else {
		w.pushInbox()
	}
	// Count the vertices runnable next superstep: the queue's length, or
	// in ScanAll — which still visits every vertex's state, the per-step
	// cost the paper's §9 points out for a non-halt-by-default runtime — a
	// popcount per word of the active set.
	if queue {
		w.nextActive = len(w.next)
	} else {
		live, rem := 0, w.rem[:len(w.act)]
		for i, a := range w.act {
			live += bits.OnesCount64(a &^ rem[i])
		}
		w.nextActive = live
	}
	w.cur, w.next = w.next, w.cur
}

// pushInbox is exchange's delivery of the envelopes in every worker's
// bucket for w.
func (w *worker[V, M]) pushInbox() {
	e := w.eng
	queue := e.opts.Scheduler == WorkQueue
	off, end := w.msgOff, w.msgEnd
	// Count into end. A receiver's first envelope marks it in got and
	// wakes it; in WorkQueue mode it joins the queue built during compute,
	// in envelope order.
	for _, src := range e.workers {
		for _, to := range src.outTo[w.id] {
			li := int(to) - w.lo
			if hasBit(w.rem, li) {
				continue
			}
			if end[li] == 0 {
				setBit(w.got, li)
				setBit(w.act, li)
				if queue {
					w.enqueue(int(to))
				}
			}
			end[li]++
			w.delivered++
			if src.id != w.id {
				w.cross++
			}
		}
	}
	// Lay the receivers' inboxes out in vertex order; end becomes the
	// scatter cursor and, after the scatter, the inbox end.
	n := int32(0)
	for i, m := range w.got {
		for ; m != 0; m &= m - 1 {
			li := i<<6 + bits.TrailingZeros64(m)
			c := end[li]
			off[li], end[li] = n, n
			n += c
		}
	}
	if cap(w.msgBuf) < w.delivered {
		w.msgBuf = make([]M, w.delivered)
	} else {
		w.msgBuf = w.msgBuf[:w.delivered]
	}
	for _, src := range e.workers {
		msgs := src.outMsg[w.id]
		for i, to := range src.outTo[w.id] {
			li := int(to) - w.lo
			if hasBit(w.rem, li) {
				continue
			}
			w.msgBuf[end[li]] = msgs[i]
			end[li]++
		}
	}
}

// enqueue adds local vertex u to the next-superstep queue, at most once.
func (w *worker[V, M]) enqueue(u int) {
	li := u - w.lo
	if w.queued[li] == w.stamp {
		return
	}
	w.queued[li] = w.stamp
	w.next = append(w.next, VertexID(u))
}
