package pregel

import "repro/internal/graph"

// Context is the per-vertex view of the computation handed to Program.Init
// and Program.Compute. A Context is only valid for the duration of the call
// it is passed to.
type Context[V, M any] struct {
	eng *Engine[V, M]
	w   *worker[V, M]
	id  VertexID

	votedHalt  bool
	removeSelf bool
}

// ID returns the vertex this context belongs to.
func (c *Context[V, M]) ID() VertexID { return c.id }

// Worker returns the index, in [0, Engine.Workers()), of the worker running
// this vertex: a program keeps per-worker scratch under it without locking.
func (c *Context[V, M]) Worker() int { return c.w.id }

// Superstep returns the current superstep number (0 = Init).
func (c *Context[V, M]) Superstep() int { return c.eng.superstep }

// NumVertices returns |V| of the graph.
func (c *Context[V, M]) NumVertices() int { return c.eng.g.NumVertices() }

// Value returns a pointer to this vertex's mutable state.
func (c *Context[V, M]) Value() *V { return &c.eng.values[c.id] }

// Graph returns the underlying immutable graph.
func (c *Context[V, M]) Graph() *graph.Graph { return c.eng.g }

// OutArcs returns an allocation-free cursor over this vertex's
// out-edges (its neighbour set on undirected graphs), valid for both
// graph representations. It is the one way a vertex program reads its
// adjacency and weights.
func (c *Context[V, M]) OutArcs() graph.ArcIter { return c.eng.g.OutArcs(c.id) }

// InArcs returns an allocation-free cursor over this vertex's in-edges.
func (c *Context[V, M]) InArcs() graph.ArcIter { return c.eng.g.InArcs(c.id) }

// OutDegree returns this vertex's out-degree.
func (c *Context[V, M]) OutDegree() int { return c.eng.g.OutDegree(c.id) }

// Send sends m to vertex `to`, to be received next superstep: it appends
// an envelope to the bucket of to's worker or, with a combiner, folds m
// into the one that bucket holds for its (destination, class) pair. A
// worker's first Send in a superstep first pushes the broadcasts it has
// recorded, in order, and that superstep pushes (see BroadcastOut).
func (c *Context[V, M]) Send(to VertexID, m M) { c.w.send(to, m) }

// BroadcastOut sends m along every out-edge, as Send per edge would: the
// receivers' inboxes, the counts and every snapshot are the same. The
// engine records m once for the vertex and picks the delivery for the
// whole superstep at the barrier. The superstep pulls — each receiver
// folds its broadcasting in-neighbours' values per owner worker — when the
// run is in-process, without Quarantine, under ScanAll and a CombinerFunc,
// no vertex called Send or broadcast twice in it, and at most an eighth of
// the arcs leave vertices that did not broadcast. Otherwise each value is
// pushed along the out-list, decoded once. Neither allocates in steady
// state.
func (c *Context[V, M]) BroadcastOut(m M) { c.w.broadcast(c.id, m) }

// VoteToHalt deactivates this vertex until a message arrives for it.
func (c *Context[V, M]) VoteToHalt() { c.votedHalt = true }

// RemoveSelf removes this vertex from the computation at the end of the
// current superstep: it will never run again and messages addressed to it
// are dropped. Messages it sent this superstep are still delivered (this is
// what lets a vertex broadcast a zero-out patch before disappearing, per
// the paper's §9 deletion sketch).
func (c *Context[V, M]) RemoveSelf() { c.removeSelf = true }

// Aggregate contributes v to the aggregator RegisterAggregator returned id
// for; the reduced value becomes visible through AggValue at the next
// superstep. Contributions accumulate into a dense per-worker array indexed
// by id, so the hot path never touches a string-keyed map. An id that was
// never returned panics with an index out of range.
func (c *Context[V, M]) Aggregate(id int, v float64) {
	w := c.w
	if !w.aggSeen[id] {
		w.aggSeen[id] = true
		w.aggPend[id] = v
		return
	}
	w.aggPend[id] = aggReduce(c.eng.aggList[id].op, w.aggPend[id], v)
}

// AggValue returns the named aggregator's committed value (reduced over the
// previous superstep's contributions; running total for persistent
// aggregators).
func (c *Context[V, M]) AggValue(name string) float64 {
	a, ok := c.eng.aggs[name]
	if !ok {
		panic("pregel: AggValue of unregistered aggregator " + name)
	}
	return a.value
}

// Globals returns the engine-wide read-only value installed by SetGlobals
// or the master hook.
func (c *Context[V, M]) Globals() any { return c.eng.globals }

// MasterContext is handed to the master hook at the end of each superstep.
type MasterContext struct {
	step       StepStats
	nextActive int

	activateAll bool
	stop        bool

	aggValue   func(string) float64
	setGlobals func(any)
	getGlobals func() any
}

// Step returns the statistics of the superstep that just completed.
func (m *MasterContext) Step() StepStats { return m.step }

// Superstep returns the superstep that just completed.
func (m *MasterContext) Superstep() int { return m.step.Superstep }

// NextActive returns how many vertices are scheduled to run next superstep
// (before any ActivateAll).
func (m *MasterContext) NextActive() int { return m.nextActive }

// ActivateAll re-activates every non-removed vertex for the next superstep.
func (m *MasterContext) ActivateAll() { m.activateAll = true }

// Stop terminates the computation after this superstep.
func (m *MasterContext) Stop() { m.stop = true }

// AggValue returns the committed value of a registered aggregator.
func (m *MasterContext) AggValue(name string) float64 { return m.aggValue(name) }

// Globals returns the engine-wide globals value.
func (m *MasterContext) Globals() any { return m.getGlobals() }

// SetGlobals replaces the engine-wide globals value for subsequent
// supersteps.
func (m *MasterContext) SetGlobals(g any) { m.setGlobals(g) }
