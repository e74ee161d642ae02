package vm

import (
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/fmath"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// Execution of the lowered program (core.Lowered). NewMachine turns every
// lowered body into Go closures once — one closure per node, operands
// captured, opcodes and slots resolved — and a vertex call runs them over a
// per-worker frame. Everything is generic in the engine's message type M,
// and the closures that touch a message come from M's kind (kind.go): a
// one-group program exchanges bare 8-byte payloads, every other program
// Msg[P] at the narrowest width P that fits: one slot or MaxSlots. A receive
// or send core classifies as a kernel (core.Kernel) compiles to one fused
// loop instead, where the kind runs it.

// payload is the set of Msg widths a machine is instantiated at: the
// widest send group's slot count, rounded up to 1 or MaxSlots.
type payload interface {
	[1]float64 | [MaxSlots]float64
}

// wideMsg is the width-independent message the repair planner builds; a run
// narrows it to its own message type when it sends it.
type wideMsg = Msg[[MaxSlots]float64]

// runner is the message-type-specific half of a Machine.
type runner interface {
	// execute runs the machine on a fresh engine started from seed (nil:
	// from scratch) with master state gl.
	execute(ctx context.Context, opts RunOptions, seed *pregel.Seed, gl *globals) (*Result, error)
	// untilSatisfied evaluates a phase's until{} condition on the master.
	untilSatisfied(phase, iter int, fixpoint bool) bool
	// initVertex runs Lowered.InitAdded for a vertex a delta run adds.
	initVertex(u graph.VertexID)
	// slotValue evaluates a site's slot expression at sender u for an arc of
	// weight w; with old non-nil, against the $old fields and the degrees
	// old carries (the planner's pre-mutation contribution).
	slotValue(site int, u graph.VertexID, w float64, old *vertexDegrees) float64
}

func newRunner(m *Machine) runner {
	rows := groupRows(m)
	if op, ok := m.prog.BareOp(); ok {
		return newExec[float64](m, bareKind(op), rows)
	}
	if m.prog.MaxSlotsPerGroup <= 1 {
		return newExec[Msg[[1]float64]](m, wideKind[[1]float64]{rows}, rows)
	}
	return newExec[Msg[[MaxSlots]float64]](m, wideKind[[MaxSlots]float64]{rows}, rows)
}

// vertexDegrees is an explicit degree pair overriding the graph's.
type vertexDegrees struct {
	in, out int
}

// frame is one vertex call's evaluation state. A run keeps one per engine
// worker and re-aims it at each vertex, so a vertex call allocates nothing.
type frame[M any] struct {
	m    *Machine
	ctx  *pregel.Context[VState, M]
	u    graph.VertexID
	row  []float64 // the vertex's state slots
	lets []float64
	msgs []M
	cur  *M // the message an OpRecv body is reading
	// msg is the message a send is building and arcs the arcs it goes out
	// on: frame fields, not locals, so neither escapes nor is copied.
	msg  M
	arcs graph.ArcIter
	iter int
	// weight is the weight of the arc a send is building for.
	weight float64
	// deg, when non-nil, replaces the vertex's degrees: the repair planner
	// evaluates pre-mutation contributions against the mutated graph.
	deg      *vertexDegrees
	fixpoint bool // what OpFixpoint reads; only until{} conditions do
	changed  bool // some user field changed during this call
	// foldKeys is tableFold's reusable sender-sort scratch.
	foldKeys []graph.VertexID
}

// at aims f at vertex u's state row.
func (f *frame[M]) at(u graph.VertexID) {
	base := int(u) * f.m.stride
	f.u, f.row = u, f.m.state[base:base+f.m.stride:base+f.m.stride]
}

// fn is one lowered node compiled to a closure; it returns the node's
// float64-encoded value (0 for statements).
type fn[M any] func(*frame[M]) float64

// exec is a Machine's compiled bodies and engine program at message type M.
type exec[M any] struct {
	m                  *Machine
	k                  kind[M]
	rows               []groupRow
	init, added        fn[M]
	body, prime, until []fn[M] // per phase; until entries are nil when absent
	site, siteOld      []fn[M] // per aggregation site
	// frames[w] is engine worker w's frame during a run; aux serves the
	// single-threaded work outside supersteps (until{}, repair planning,
	// added vertices).
	frames []frame[M]
	aux    frame[M]
	// start is core.Program.Start's row when superstep 0 copies it
	// (InitRange); exceptions, ascending, are the vertices that run init.
	start      []float64
	exceptions []graph.VertexID
}

func newExec[M any](m *Machine, k kind[M], rows []groupRow) *exec[M] {
	code := m.prog.Lowered
	c := &compiler[M]{m: m, k: k, code: code}
	x := &exec[M]{m: m, k: k, rows: rows, init: c.fn(code.Init), added: c.fn(code.InitAdded)}
	for _, ph := range code.Phases {
		x.body = append(x.body, c.fn(ph.Body))
		x.prime = append(x.prime, c.fn(ph.Prime))
		x.until = append(x.until, c.fn(ph.Until))
	}
	for _, s := range code.Sites {
		x.site = append(x.site, c.fn(s.Value))
		x.siteOld = append(x.siteOld, c.fn(s.Old))
	}
	x.aux = x.newFrame()
	return x
}

func (x *exec[M]) newFrame() frame[M] {
	return frame[M]{m: x.m, lets: make([]float64, x.m.prog.Lowered.Lets)}
}

// aim re-aims the calling worker's frame at ctx's vertex.
func (x *exec[M]) aim(ctx *pregel.Context[VState, M], msgs []M, iter int) *frame[M] {
	f := &x.frames[ctx.Worker()]
	f.at(ctx.ID())
	f.ctx, f.msgs, f.cur, f.iter, f.changed = ctx, msgs, nil, iter, false
	return f
}

// Init runs Lowered.Init at superstep 0 on a vertex InitRange leaves to it.
func (x *exec[M]) Init(ctx *pregel.Context[VState, M]) {
	x.init(x.aim(ctx, nil, 0))
}

// InitRange copies the start template over block [lo, hi) and returns the
// block's exceptions, their rows zeroed for Init; ok is false without one.
func (x *exec[M]) InitRange(_ int, lo, hi graph.VertexID) (run []graph.VertexID, ok bool) {
	if x.start == nil {
		return nil, false
	}
	m := x.m
	rows := m.state[int(lo)*m.stride : int(hi)*m.stride]
	for n := copy(rows, x.start); n < len(rows); n *= 2 {
		copy(rows[n:], rows[:n])
	}
	i, _ := slices.BinarySearch(x.exceptions, lo)
	j, _ := slices.BinarySearch(x.exceptions, hi)
	for _, u := range x.exceptions[i:j] {
		clear(m.state[int(u)*m.stride : int(u+1)*m.stride])
	}
	return x.exceptions[i:j], true
}

// Compute runs a vertex at supersteps >= 1.
func (x *exec[M]) Compute(ctx *pregel.Context[VState, M], msgs []M) {
	m := x.m
	gl := ctx.Globals().(*globals)
	switch gl.Mode {
	case modePrime:
		// Messages in flight at a prime superstep belong to the previous,
		// finished phase; they are dropped (see package docs).
		x.prime[gl.Phase](x.aim(ctx, nil, gl.Iter))
	case modeBody:
		f := x.aim(ctx, msgs, gl.Iter)
		x.body[gl.Phase](f)
		if f.changed { // $unchanged is an AND from 1: only a change moves it
			ctx.Aggregate(m.unchangedAgg, 0)
		}
		// Halting is performed by the lowered halt for incremental
		// programs; non-halting programs stay active for the next body
		// superstep.
	case modeRepair:
		// Emit the precomputed retraction/injection messages for this
		// vertex's mutated arcs. Pure senders halt; vertices flagged by the
		// planner (memo-table surgery receivers) stay active so the next
		// body superstep refolds their state even if no message wakes them.
		u := ctx.ID()
		sends := m.repair.sends[u]
		for i := range sends {
			ctx.Send(sends[i].dest, x.k.narrow(&sends[i].msg))
		}
		if !m.repair.keepActive[u] {
			ctx.VoteToHalt()
		}
	}
}

func (x *exec[M]) untilSatisfied(phase, iter int, fixpoint bool) bool {
	until := x.until[phase]
	if until == nil {
		return true
	}
	x.aux.iter, x.aux.fixpoint = iter, fixpoint
	return until(&x.aux) != 0
}

func (x *exec[M]) initVertex(u graph.VertexID) {
	x.aux.at(u)
	x.aux.iter = 0
	x.added(&x.aux)
}

func (x *exec[M]) slotValue(site int, u graph.VertexID, w float64, old *vertexDegrees) float64 {
	f := &x.aux
	f.at(u)
	f.iter, f.weight = 0, w
	if old == nil {
		return x.site[site](f)
	}
	f.deg = old
	v := x.siteOld[site](f)
	f.deg = nil
	return v
}

func (x *exec[M]) execute(ctx context.Context, opts RunOptions, seed *pregel.Seed, gl *globals) (*Result, error) {
	m := x.m
	if opts.MaxSupersteps <= 0 {
		opts.MaxSupersteps = 100_000
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m.runCtx = ctx
	// The Extra closure captures eng by reference: the engine only invokes
	// it mid-run, after New below has assigned it.
	var eng *pregel.Engine[VState, M]
	ckpt := opts.Checkpoint
	if ckpt.Dir != "" || ckpt.Sink != nil {
		ckpt.Extra = func(dst []byte) []byte {
			return m.encodeExtra(dst, eng.Globals().(*globals))
		}
	}
	eng = pregel.New[VState, M](m.g, pregel.Options{
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
	eng.SetMessageCodec(recordCodec[M]{x.k, x.rows})
	var err error
	if m.unchangedAgg, err = eng.RegisterAggregator(aggUnchanged, pregel.AggAnd, false); err != nil {
		return nil, err
	}
	x.frames = make([]frame[M], eng.Workers())
	for w := range x.frames {
		x.frames[w] = x.newFrame()
	}
	// A cold run copies the start template unless closures or a non-finite
	// weight rule it out; u runs init where float64(u) == key, as OpEq has it.
	if st := m.prog.Start; seed == nil && st.Row != nil && !m.closures && (!st.Finite || m.g.FiniteWeights()) {
		x.start = st.Row
		for _, r := range st.Keys {
			key := m.prog.Lowered.Nodes[r]
			if key.Op == core.OpParam {
				key.K = m.params[key.A]
			}
			if key.K >= 0 && key.K < float64(m.g.NumVertices()) && key.K == math.Trunc(key.K) {
				x.exceptions = append(x.exceptions, graph.VertexID(key.K))
			}
		}
		slices.Sort(x.exceptions)
		x.exceptions = slices.Compact(x.exceptions)
	}
	if opts.Combine {
		if c := x.k.combiner(); c != nil {
			eng.SetCombiner(c)
		}
	}
	eng.SetGlobals(gl)
	eng.SetMasterHook(m.masterHook)
	stats, err := eng.RunContext(ctx, x)
	// The frames point into the engine through their contexts; the machine
	// outlives the run (Result holds it) and the engine must not.
	x.frames = nil
	if stats == nil {
		return nil, err
	}
	if err == nil {
		// The engine gathered its vertex values, but the VM's field state
		// lives in m.state: a successful sharded run all-gathers the owned
		// rows so Result fields read whole on every shard.
		err = pregel.GatherRows(eng, m.state, m.stride, pregel.Float64Codec{})
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
	m.sealExtra(res.endGlobals)
	return res, nil
}

// compiler turns lowered nodes into closures.
type compiler[M any] struct {
	m    *Machine
	k    kind[M]
	code *core.Lowered
}

// fn compiles node r (nil for NoRef).
func (c *compiler[M]) fn(r core.Ref) fn[M] {
	if r == core.NoRef {
		return nil
	}
	n := &c.code.Nodes[r]
	switch n.Op {
	case core.OpConst:
		k := n.K
		return func(*frame[M]) float64 { return k }
	case core.OpLoad:
		s := n.A
		return func(f *frame[M]) float64 { return f.row[s] }
	case core.OpStore:
		s, x := n.A, c.fn(n.X)
		return func(f *frame[M]) float64 { f.row[s] = x(f); return 0 }
	case core.OpStoreUser:
		s, x := n.A, c.fn(n.X)
		return func(f *frame[M]) float64 {
			v := x(f)
			if f.row[s] != v {
				f.changed = true
			}
			f.row[s] = v
			return 0
		}
	case core.OpLetRef:
		s := n.A
		return func(f *frame[M]) float64 { return f.lets[s] }
	case core.OpSetLet:
		s, x := n.A, c.fn(n.X)
		return func(f *frame[M]) float64 { f.lets[s] = x(f); return 0 }
	case core.OpParam:
		k := c.m.params[n.A]
		return func(*frame[M]) float64 { return k }
	case core.OpIter:
		return func(f *frame[M]) float64 { return float64(f.iter) }
	case core.OpFixpoint:
		return func(f *frame[M]) float64 { return boolTo01(f.fixpoint) }
	case core.OpGraphSize:
		k := float64(c.m.g.NumVertices())
		return func(*frame[M]) float64 { return k }
	case core.OpVertexID:
		return func(f *frame[M]) float64 { return float64(f.u) }
	case core.OpWeight:
		return func(f *frame[M]) float64 { return f.weight }
	case core.OpDegree:
		g := c.m.g
		if ast.GraphDir(n.A) == ast.DirIn {
			return func(f *frame[M]) float64 {
				if f.deg != nil {
					return float64(f.deg.in)
				}
				return float64(g.InDegree(f.u))
			}
		}
		return func(f *frame[M]) float64 { // #out, and #neighbors of an undirected graph
			if f.deg != nil {
				return float64(f.deg.out)
			}
			return float64(g.OutDegree(f.u))
		}
	case core.OpNeg:
		x := c.fn(n.X)
		return func(f *frame[M]) float64 { return -x(f) }
	case core.OpNot:
		x := c.fn(n.X)
		return func(f *frame[M]) float64 { return boolTo01(x(f) == 0) }
	case core.OpAnd:
		x, y := c.fn(n.X), c.fn(n.Y)
		return func(f *frame[M]) float64 {
			if x(f) == 0 {
				return 0
			}
			return boolTo01(y(f) != 0)
		}
	case core.OpOr:
		x, y := c.fn(n.X), c.fn(n.Y)
		return func(f *frame[M]) float64 {
			if x(f) != 0 {
				return 1
			}
			return boolTo01(y(f) != 0)
		}
	case core.OpAdd, core.OpSub, core.OpMul, core.OpDiv, core.OpLt, core.OpGt, core.OpLe,
		core.OpGe, core.OpEq, core.OpNe, core.OpMin, core.OpMax, core.OpSame:
		return c.binary(n)
	case core.OpChanged:
		a, b, eps := n.A, n.B, n.K
		return func(f *frame[M]) float64 { return boolTo01(math.Abs(f.row[a]-f.row[b]) > eps) }
	case core.OpIf:
		cond, then := c.fn(n.X), c.fn(n.Y)
		if n.Z == core.NoRef {
			return func(f *frame[M]) float64 {
				if cond(f) != 0 {
					return then(f)
				}
				return 0
			}
		}
		els := c.fn(n.Z)
		return func(f *frame[M]) float64 {
			if cond(f) != 0 {
				return then(f)
			}
			return els(f)
		}
	case core.OpSeq:
		return c.seq(n.Args)
	case core.OpHalt:
		return func(f *frame[M]) float64 { f.ctx.VoteToHalt(); return 0 }
	case core.OpRecv:
		if k := c.kernel(r); k != nil {
			return k
		}
		return c.k.recv(uint8(n.A), c.fn(n.X))
	case core.OpMsgVal:
		return c.k.val(int(n.A))
	case core.OpMsgNull, core.OpMsgPrevNull:
		return c.k.tag(int(n.A), n.Op == core.OpMsgPrevNull)
	case core.OpTableUpdate:
		return c.k.tableUpdate(int(n.A))
	case core.OpTableFold:
		site := int(n.A)
		return func(f *frame[M]) float64 { return f.tableFold(site) }
	case core.OpBroadcast, core.OpSendEach:
		if k := c.kernel(r); k != nil {
			return k
		}
		return c.send(n)
	}
	panic("vm: no closure for a lowered opcode")
}

// kernel compiles the receive or send at r as the kernel core classifies it
// as, if M's kind runs that kernel; nil leaves it to the closures.
func (c *compiler[M]) kernel(r core.Ref) fn[M] {
	if c.m.closures {
		return nil
	}
	switch k := c.m.prog.Kernel(r); k.Kind {
	case core.KernelFold:
		return c.k.fold(k)
	case core.KernelArc:
		a := &arcKernel[M]{Kernel: k, m: c.m, x: c.fn(k.Arc.X), arcs: c.arcs(&c.code.Nodes[r]),
			id: core.Identity(k.Op)}
		if k.Delta {
			a.old = c.fn(k.Old)
		}
		return c.k.arcSend(a)
	}
	return nil
}

// arcKernel is a core.KernelArc send compiled for a kind: the slot's x (and
// the old x of a Δ), the arcs the send goes out on, and ⊞'s identity.
type arcKernel[M any] struct {
	core.Kernel
	m      *Machine
	x, old fn[M]
	arcs   func(*graph.ArcIter, graph.VertexID)
	id     float64
}

// arcs is the arc cursor a send of push direction ast.GraphDir(n.B) starts.
func (c *compiler[M]) arcs(n *core.Node) func(*graph.ArcIter, graph.VertexID) {
	if ast.GraphDir(n.B) == ast.DirIn {
		return c.m.g.InArcsInto
	}
	return c.m.g.OutArcsInto // DirOut, and DirNeighbors of an undirected graph
}

// binary compiles the pure two-operand operators.
func (c *compiler[M]) binary(n *core.Node) fn[M] {
	x, y := c.fn(n.X), c.fn(n.Y)
	switch n.Op {
	case core.OpAdd:
		return func(f *frame[M]) float64 { return x(f) + y(f) }
	case core.OpSub:
		return func(f *frame[M]) float64 { return x(f) - y(f) }
	case core.OpMul:
		return func(f *frame[M]) float64 { return x(f) * y(f) }
	case core.OpDiv:
		return func(f *frame[M]) float64 { return x(f) / y(f) }
	case core.OpLt:
		return func(f *frame[M]) float64 { return boolTo01(x(f) < y(f)) }
	case core.OpGt:
		return func(f *frame[M]) float64 { return boolTo01(x(f) > y(f)) }
	case core.OpLe:
		return func(f *frame[M]) float64 { return boolTo01(x(f) <= y(f)) }
	case core.OpGe:
		return func(f *frame[M]) float64 { return boolTo01(x(f) >= y(f)) }
	case core.OpEq:
		return func(f *frame[M]) float64 { return boolTo01(x(f) == y(f)) }
	case core.OpNe:
		return func(f *frame[M]) float64 { return boolTo01(x(f) != y(f)) }
	case core.OpMin:
		return func(f *frame[M]) float64 { return fmath.Min(x(f), y(f)) }
	case core.OpSame:
		return func(f *frame[M]) float64 { return boolTo01(math.Float64bits(x(f)) == math.Float64bits(y(f))) }
	}
	return func(f *frame[M]) float64 { return fmath.Max(x(f), y(f)) }
}

func (c *compiler[M]) seq(args []core.Ref) fn[M] {
	items := make([]fn[M], len(args))
	for i, r := range args {
		items[i] = c.fn(r)
	}
	switch len(items) {
	case 0:
		return func(*frame[M]) float64 { return 0 }
	case 1:
		return items[0]
	case 2:
		a, b := items[0], items[1]
		return func(f *frame[M]) float64 {
			a(f)
			return b(f)
		}
	}
	return func(f *frame[M]) float64 {
		var v float64
		for _, it := range items {
			v = it(f)
		}
		return v
	}
}

// send compiles an OpBroadcast or OpSendEach: the message goes out unless
// every slot is a no-op. A broadcast over out-arcs is one BroadcastOut.
func (c *compiler[M]) send(n *core.Node) fn[M] {
	slots := make([]slotFn[M], len(n.Args))
	for i, r := range n.Args {
		slots[i] = c.slot(r)
	}
	build, arcs := c.k.build(uint8(n.A), slots), c.arcs(n)
	if n.Op == core.OpBroadcast && ast.GraphDir(n.B) != ast.DirIn {
		return func(f *frame[M]) float64 {
			f.weight = 1
			if build(f) {
				f.ctx.BroadcastOut(f.msg)
			}
			return 0
		}
	}
	if n.Op == core.OpBroadcast {
		return func(f *frame[M]) float64 {
			f.weight = 1
			if build(f) {
				for arcs(&f.arcs, f.u); f.arcs.Next(); {
					f.ctx.Send(f.arcs.To(), f.msg)
				}
			}
			return 0
		}
	}
	return func(f *frame[M]) float64 {
		for arcs(&f.arcs, f.u); f.arcs.Next(); {
			f.weight = f.arcs.Weight()
			if build(f) {
				f.ctx.Send(f.arcs.To(), f.msg)
			}
		}
		return 0
	}
}

// slot compiles a payload slot: a Δ, a full value, or a plain value.
func (c *compiler[M]) slot(r core.Ref) slotFn[M] {
	n := &c.code.Nodes[r]
	switch n.Op {
	case core.OpDelta:
		return c.delta(n)
	case core.OpFull:
		return c.full(n)
	}
	x := c.fn(r)
	return func(f *frame[M]) (float64, uint8, bool) { return x(f), tagNone, false }
}

// full is a site's full value (§6.1): a no-op when it is ⊞'s identity,
// tagged nullary when it is a multiplicative site's absorbing element.
func (c *compiler[M]) full(n *core.Node) slotFn[M] {
	s := c.m.prog.Sites[n.A]
	x, mult, id := c.fn(n.X), s.Multiplicative(), core.Identity(s.Op)
	abs, _ := core.Absorbing(s.Op)
	return func(f *frame[M]) (float64, uint8, bool) {
		v := x(f)
		if mult && v == abs {
			return v, tagNull, false
		}
		return v, tagNone, v == id
	}
}

// delta synthesizes a site's Δ-message slot (P5, Eq. 11): the value d such
// that acc ⊞ new ≃ (acc ⊞ old) ⊞ d, with the §6.4.1 nullary tags for
// multiplicative operators. Equal values are a no-op carrying ⊞'s identity.
func (c *compiler[M]) delta(n *core.Node) slotFn[M] {
	m, s := c.m, c.m.prog.Sites[n.A]
	newV, oldV, id := c.fn(n.X), c.fn(n.Y), core.Identity(s.Op)
	abs, _ := core.Absorbing(s.Op)
	return func(f *frame[M]) (float64, uint8, bool) {
		a, b := newV(f), oldV(f)
		if a == b {
			return id, tagNone, true
		}
		tag := uint8(tagNone)
		switch s.Op {
		case ast.AggSum:
			a -= b
		case ast.AggMin, ast.AggMax:
			// The new value is its own Δ; a move against ⊞ is counted.
			if s.Op == ast.AggMin && a > b || s.Op == ast.AggMax && a < b {
				m.nonMonotone.Add(1)
			}
		case ast.AggProd:
			switch {
			case a == 0:
				a, tag = 0, tagNull
			case b == 0:
				a, tag = a/f.row[s.LastNNSlot], tagPrev
			default:
				a /= b
			}
		default: // and, or: a is the absorbing element gained, or the identity after losing it
			tag = tagPrev
			if a == abs {
				tag = tagNull
			}
		}
		return a, tag, false
	}
}

// tableUpdate implements the §4.2.1 receive path: record each sender's
// latest contribution in the per-neighbour lookup tables of the group's
// sites. A sender with parallel edges to this vertex sends one message per
// edge in the same superstep; those are merged with the site's ⊞, which is
// exactly the sender's total contribution for any commutative-associative
// operator. A fresh superstep's value replaces the cached one (the cache
// update of Fig. 2b).
func tableUpdate[P payload](f *frame[Msg[P]], group int) {
	m := f.m
	g := m.prog.Groups[group]
	var replaced map[graph.VertexID]bool
	for _, sid := range g.Sites {
		s := m.prog.Sites[sid]
		slotIdx := s.SlotInGroup
		if replaced == nil {
			replaced = make(map[graph.VertexID]bool, 4)
		} else {
			clear(replaced)
		}
		tbl := m.tables[sid][f.u]
		for i := range f.msgs {
			msg := &f.msgs[i]
			if int(msg.Group) != group {
				continue
			}
			if tbl == nil {
				tbl = make(map[graph.VertexID]float64, 4)
				m.tables[sid][f.u] = tbl
			}
			if replaced[msg.Sender] {
				tbl[msg.Sender] = core.Apply(s.Op, tbl[msg.Sender], msg.Vals[slotIdx])
			} else {
				tbl[msg.Sender] = msg.Vals[slotIdx]
				replaced[msg.Sender] = true
			}
		}
	}
}

// tableFold implements the §4.2.1 aggregation path: refold the entire
// lookup table (the cost the paper calls out as making this approach
// impractical). The fold runs in ascending sender order — never map
// iteration order — so non-associative float accumulation yields the same
// bits on every run and memo-table results stay comparable bitwise against
// the other modes' deterministic schedules.
func (f *frame[M]) tableFold(site int) float64 {
	s := f.m.prog.Sites[site]
	tbl := f.m.tables[site][f.u]
	keys := f.foldKeys[:0]
	for sender := range tbl { //lint:allow maprange — senders sorted below before folding
		keys = append(keys, sender)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	f.foldKeys = keys
	acc := core.Identity(s.Op)
	for _, sender := range keys {
		acc = core.Apply(s.Op, acc, tbl[sender])
	}
	return acc
}
