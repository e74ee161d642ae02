package vm

import (
	"context"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// Execution of the lowered program (core.Lowered). NewMachine turns every
// lowered body into Go closures once — one closure per node, operands
// captured, opcodes and slots resolved — and a vertex call runs them over a
// per-worker frame. Everything that touches a message is generic in the
// payload width P, so a program whose send groups carry one slot exchanges
// 16-byte messages; the machine is instantiated at one width per program.

// payload is the set of message widths a machine is instantiated at: the
// widest send group's slot count, rounded up to 1, 2 or MaxSlots.
type payload interface {
	[1]float64 | [2]float64 | [MaxSlots]float64
}

// wideMsg is the width-independent message the repair planner builds; a run
// narrows it to its own width when it sends it.
type wideMsg = Msg[[MaxSlots]float64]

func narrow[P payload](w *wideMsg) Msg[P] {
	m := Msg[P]{Group: w.Group, NVals: w.NVals, TagNull: w.TagNull, TagPrev: w.TagPrev, Sender: w.Sender}
	for i := 0; i < len(m.Vals); i++ {
		m.Vals[i] = w.Vals[i]
	}
	return m
}

// runner is the width-specific half of a Machine.
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
	switch n := m.prog.MaxSlotsPerGroup; {
	case n <= 1:
		return newExec[[1]float64](m)
	case n == 2:
		return newExec[[2]float64](m)
	}
	return newExec[[MaxSlots]float64](m)
}

// vertexDegrees is an explicit degree pair overriding the graph's.
type vertexDegrees struct {
	in, out int
}

// frame is one vertex call's evaluation state. A run keeps one per engine
// worker and re-aims it at each vertex, so a vertex call allocates nothing.
type frame[P payload] struct {
	m    *Machine
	ctx  *pregel.Context[VState, Msg[P]]
	u    graph.VertexID
	row  []float64 // the vertex's state slots
	lets []float64
	msgs []Msg[P]
	cur  *Msg[P] // the message an OpRecv body is reading
	// msg is the message a send is building and arcs the arcs it goes out
	// on: frame fields, not locals, so neither escapes nor is copied.
	msg  Msg[P]
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
func (f *frame[P]) at(u graph.VertexID) {
	base := int(u) * f.m.stride
	f.u, f.row = u, f.m.state[base:base+f.m.stride:base+f.m.stride]
}

// fn is one lowered node compiled to a closure; it returns the node's
// float64-encoded value (0 for statements).
type fn[P payload] func(*frame[P]) float64

// exec is a Machine's compiled bodies and engine program at payload width P.
type exec[P payload] struct {
	m                  *Machine
	init, added        fn[P]
	body, prime, until []fn[P] // per phase; until entries are nil when absent
	site, siteOld      []fn[P] // per aggregation site
	// frames[w] is engine worker w's frame during a run; aux serves the
	// single-threaded work outside supersteps (until{}, repair planning,
	// added vertices).
	frames []frame[P]
	aux    frame[P]
}

func newExec[P payload](m *Machine) *exec[P] {
	code := m.prog.Lowered
	c := &compiler[P]{m: m, code: code}
	x := &exec[P]{m: m, init: c.fn(code.Init), added: c.fn(code.InitAdded)}
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

func (x *exec[P]) newFrame() frame[P] {
	return frame[P]{m: x.m, lets: make([]float64, x.m.prog.Lowered.Lets)}
}

// aim re-aims the calling worker's frame at ctx's vertex.
func (x *exec[P]) aim(ctx *pregel.Context[VState, Msg[P]], msgs []Msg[P], iter int) *frame[P] {
	f := &x.frames[ctx.Worker()]
	f.at(ctx.ID())
	f.ctx, f.msgs, f.cur, f.iter, f.changed = ctx, msgs, nil, iter, false
	return f
}

// Init runs Lowered.Init at superstep 0 on every vertex.
func (x *exec[P]) Init(ctx *pregel.Context[VState, Msg[P]]) {
	x.init(x.aim(ctx, nil, 0))
}

// Compute runs a vertex at supersteps >= 1.
func (x *exec[P]) Compute(ctx *pregel.Context[VState, Msg[P]], msgs []Msg[P]) {
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
		ctx.Aggregate(m.unchangedAgg, boolTo01(!f.changed))
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
			ctx.Send(sends[i].dest, narrow[P](&sends[i].msg))
		}
		if !m.repair.keepActive[u] {
			ctx.VoteToHalt()
		}
	}
}

func (x *exec[P]) untilSatisfied(phase, iter int, fixpoint bool) bool {
	until := x.until[phase]
	if until == nil {
		return true
	}
	x.aux.iter, x.aux.fixpoint = iter, fixpoint
	return until(&x.aux) != 0
}

func (x *exec[P]) initVertex(u graph.VertexID) {
	x.aux.at(u)
	x.aux.iter = 0
	x.added(&x.aux)
}

func (x *exec[P]) slotValue(site int, u graph.VertexID, w float64, old *vertexDegrees) float64 {
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

func (x *exec[P]) execute(ctx context.Context, opts RunOptions, seed *pregel.Seed, gl *globals) (*Result, error) {
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
	var eng *pregel.Engine[VState, Msg[P]]
	ckpt := opts.Checkpoint
	if ckpt.Dir != "" || ckpt.Sink != nil {
		ckpt.Extra = func(dst []byte) []byte {
			return m.encodeExtra(dst, eng.Globals().(*globals))
		}
	}
	eng = pregel.New[VState, Msg[P]](m.g, pregel.Options{
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
	eng.SetMessageCodec(msgCodec[P]{})
	var err error
	if m.unchangedAgg, err = eng.RegisterAggregator(aggUnchanged, pregel.AggAnd, false); err != nil {
		return nil, err
	}
	x.frames = make([]frame[P], eng.Workers())
	for w := range x.frames {
		x.frames[w] = x.newFrame()
	}
	if opts.Combine {
		if c := newCombiner[P](m); c != nil {
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

// compiler turns lowered nodes into closures.
type compiler[P payload] struct {
	m    *Machine
	code *core.Lowered
}

// fn compiles node r (nil for NoRef).
func (c *compiler[P]) fn(r core.Ref) fn[P] {
	if r == core.NoRef {
		return nil
	}
	n := &c.code.Nodes[r]
	switch n.Op {
	case core.OpConst:
		k := n.K
		return func(*frame[P]) float64 { return k }
	case core.OpLoad:
		s := n.A
		return func(f *frame[P]) float64 { return f.row[s] }
	case core.OpStore:
		s, x := n.A, c.fn(n.X)
		return func(f *frame[P]) float64 { f.row[s] = x(f); return 0 }
	case core.OpStoreUser:
		s, x := n.A, c.fn(n.X)
		return func(f *frame[P]) float64 {
			v := x(f)
			if f.row[s] != v {
				f.changed = true
			}
			f.row[s] = v
			return 0
		}
	case core.OpLetRef:
		s := n.A
		return func(f *frame[P]) float64 { return f.lets[s] }
	case core.OpSetLet:
		s, x := n.A, c.fn(n.X)
		return func(f *frame[P]) float64 { f.lets[s] = x(f); return 0 }
	case core.OpParam:
		k := c.m.params[n.A]
		return func(*frame[P]) float64 { return k }
	case core.OpIter:
		return func(f *frame[P]) float64 { return float64(f.iter) }
	case core.OpFixpoint:
		return func(f *frame[P]) float64 { return boolTo01(f.fixpoint) }
	case core.OpGraphSize:
		k := float64(c.m.g.NumVertices())
		return func(*frame[P]) float64 { return k }
	case core.OpVertexID:
		return func(f *frame[P]) float64 { return float64(f.u) }
	case core.OpWeight:
		return func(f *frame[P]) float64 { return f.weight }
	case core.OpDegree:
		g := c.m.g
		if ast.GraphDir(n.A) == ast.DirIn {
			return func(f *frame[P]) float64 {
				if f.deg != nil {
					return float64(f.deg.in)
				}
				return float64(g.InDegree(f.u))
			}
		}
		return func(f *frame[P]) float64 { // #out, and #neighbors of an undirected graph
			if f.deg != nil {
				return float64(f.deg.out)
			}
			return float64(g.OutDegree(f.u))
		}
	case core.OpNeg:
		x := c.fn(n.X)
		return func(f *frame[P]) float64 { return -x(f) }
	case core.OpNot:
		x := c.fn(n.X)
		return func(f *frame[P]) float64 { return boolTo01(x(f) == 0) }
	case core.OpAnd:
		x, y := c.fn(n.X), c.fn(n.Y)
		return func(f *frame[P]) float64 {
			if x(f) == 0 {
				return 0
			}
			return boolTo01(y(f) != 0)
		}
	case core.OpOr:
		x, y := c.fn(n.X), c.fn(n.Y)
		return func(f *frame[P]) float64 {
			if x(f) != 0 {
				return 1
			}
			return boolTo01(y(f) != 0)
		}
	case core.OpAdd, core.OpSub, core.OpMul, core.OpDiv, core.OpLt, core.OpGt, core.OpLe,
		core.OpGe, core.OpEq, core.OpNe, core.OpMin, core.OpMax:
		return c.binary(n)
	case core.OpChanged:
		a, b, eps := n.A, n.B, n.K
		return func(f *frame[P]) float64 { return boolTo01(math.Abs(f.row[a]-f.row[b]) > eps) }
	case core.OpIf:
		cond, then := c.fn(n.X), c.fn(n.Y)
		if n.Z == core.NoRef {
			return func(f *frame[P]) float64 {
				if cond(f) != 0 {
					return then(f)
				}
				return 0
			}
		}
		els := c.fn(n.Z)
		return func(f *frame[P]) float64 {
			if cond(f) != 0 {
				return then(f)
			}
			return els(f)
		}
	case core.OpSeq:
		return c.seq(n.Args)
	case core.OpHalt:
		return func(f *frame[P]) float64 { f.ctx.VoteToHalt(); return 0 }
	case core.OpRecv:
		grp, body := uint8(n.A), c.fn(n.X)
		return func(f *frame[P]) float64 {
			for i := range f.msgs {
				if f.msgs[i].Group == grp {
					f.cur = &f.msgs[i]
					body(f)
				}
			}
			f.cur = nil
			return 0
		}
	case core.OpMsgVal:
		i := int(n.A)
		return func(f *frame[P]) float64 { return f.cur.Vals[i] }
	case core.OpMsgNull:
		bit := uint8(1) << n.A
		return func(f *frame[P]) float64 { return boolTo01(f.cur.TagNull&bit != 0) }
	case core.OpMsgPrevNull:
		bit := uint8(1) << n.A
		return func(f *frame[P]) float64 { return boolTo01(f.cur.TagPrev&bit != 0) }
	case core.OpTableUpdate:
		grp := int(n.A)
		return func(f *frame[P]) float64 { f.tableUpdate(grp); return 0 }
	case core.OpTableFold:
		site := int(n.A)
		return func(f *frame[P]) float64 { return f.tableFold(site) }
	case core.OpBroadcast, core.OpSendEach:
		return c.send(n)
	}
	panic("vm: no closure for a lowered opcode")
}

// binary compiles the pure two-operand operators.
func (c *compiler[P]) binary(n *core.Node) fn[P] {
	x, y := c.fn(n.X), c.fn(n.Y)
	switch n.Op {
	case core.OpAdd:
		return func(f *frame[P]) float64 { return x(f) + y(f) }
	case core.OpSub:
		return func(f *frame[P]) float64 { return x(f) - y(f) }
	case core.OpMul:
		return func(f *frame[P]) float64 { return x(f) * y(f) }
	case core.OpDiv:
		return func(f *frame[P]) float64 { return x(f) / y(f) }
	case core.OpLt:
		return func(f *frame[P]) float64 { return boolTo01(x(f) < y(f)) }
	case core.OpGt:
		return func(f *frame[P]) float64 { return boolTo01(x(f) > y(f)) }
	case core.OpLe:
		return func(f *frame[P]) float64 { return boolTo01(x(f) <= y(f)) }
	case core.OpGe:
		return func(f *frame[P]) float64 { return boolTo01(x(f) >= y(f)) }
	case core.OpEq:
		return func(f *frame[P]) float64 { return boolTo01(x(f) == y(f)) }
	case core.OpNe:
		return func(f *frame[P]) float64 { return boolTo01(x(f) != y(f)) }
	case core.OpMin:
		return func(f *frame[P]) float64 { return math.Min(x(f), y(f)) }
	}
	return func(f *frame[P]) float64 { return math.Max(x(f), y(f)) }
}

func (c *compiler[P]) seq(args []core.Ref) fn[P] {
	items := make([]fn[P], len(args))
	for i, r := range args {
		items[i] = c.fn(r)
	}
	switch len(items) {
	case 0:
		return func(*frame[P]) float64 { return 0 }
	case 1:
		return items[0]
	case 2:
		a, b := items[0], items[1]
		return func(f *frame[P]) float64 {
			a(f)
			return b(f)
		}
	}
	return func(f *frame[P]) float64 {
		var v float64
		for _, it := range items {
			v = it(f)
		}
		return v
	}
}

// slotFn fills one payload slot of f.msg and reports whether the slot is a
// no-op (could not change any accumulator).
type slotFn[P payload] func(f *frame[P]) (noop bool)

// send compiles an OpBroadcast or OpSendEach: the message goes out unless
// every slot is a no-op.
func (c *compiler[P]) send(n *core.Node) fn[P] {
	head := Msg[P]{Group: uint8(n.A), NVals: uint8(len(n.Args))}
	slots := make([]slotFn[P], len(n.Args))
	for i, r := range n.Args {
		slots[i] = c.slot(i, r)
	}
	build := func(f *frame[P]) bool {
		f.msg = head
		f.msg.Sender = f.u
		noop := true
		for _, s := range slots {
			if !s(f) {
				noop = false
			}
		}
		return !noop
	}
	arcs := c.m.g.OutArcsInto // DirOut, and DirNeighbors of an undirected graph
	if ast.GraphDir(n.B) == ast.DirIn {
		arcs = c.m.g.InArcsInto
	}
	if n.Op == core.OpBroadcast {
		return func(f *frame[P]) float64 {
			f.weight = 1
			if build(f) {
				for arcs(&f.arcs, f.u); f.arcs.Next(); {
					f.ctx.Send(f.arcs.To(), f.msg)
				}
			}
			return 0
		}
	}
	return func(f *frame[P]) float64 {
		for arcs(&f.arcs, f.u); f.arcs.Next(); {
			f.weight = f.arcs.Weight()
			if build(f) {
				f.ctx.Send(f.arcs.To(), f.msg)
			}
		}
		return 0
	}
}

// slot compiles payload slot i: a Δ, a full value, or a plain value.
func (c *compiler[P]) slot(i int, r core.Ref) slotFn[P] {
	n := &c.code.Nodes[r]
	switch n.Op {
	case core.OpDelta:
		return c.delta(i, n)
	case core.OpFull:
		return c.full(i, n)
	}
	x := c.fn(r)
	return func(f *frame[P]) bool {
		f.msg.Vals[i] = x(f)
		return false
	}
}

// full is a site's full value (§6.1): a no-op when it is ⊞'s identity,
// tagged nullary when it is a multiplicative site's absorbing element.
func (c *compiler[P]) full(i int, n *core.Node) slotFn[P] {
	s := c.m.prog.Sites[n.A]
	x, mult, id, bit := c.fn(n.X), s.Multiplicative(), core.Identity(s.Op), uint8(1)<<i
	abs, _ := core.Absorbing(s.Op)
	return func(f *frame[P]) bool {
		v := x(f)
		f.msg.Vals[i] = v
		if mult && v == abs {
			f.msg.TagNull |= bit
			return false
		}
		return v == id
	}
}

// delta synthesizes a site's Δ-message slot (P5, Eq. 11): the value d such
// that acc ⊞ new ≃ (acc ⊞ old) ⊞ d, with the §6.4.1 nullary tags for
// multiplicative operators. Equal values are a no-op carrying ⊞'s identity.
func (c *compiler[P]) delta(i int, n *core.Node) slotFn[P] {
	m, s := c.m, c.m.prog.Sites[n.A]
	newV, oldV, id, bit := c.fn(n.X), c.fn(n.Y), core.Identity(s.Op), uint8(1)<<i
	abs, _ := core.Absorbing(s.Op)
	return func(f *frame[P]) bool {
		a, b := newV(f), oldV(f)
		if a == b {
			f.msg.Vals[i] = id
			return true
		}
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
				a = 0
				f.msg.TagNull |= bit
			case b == 0:
				a /= f.row[s.LastNNSlot]
				f.msg.TagPrev |= bit
			default:
				a /= b
			}
		default: // and, or: a is the absorbing element gained, or the identity after losing it
			if a == abs {
				f.msg.TagNull |= bit
			} else {
				f.msg.TagPrev |= bit
			}
		}
		f.msg.Vals[i] = a
		return false
	}
}

// tableUpdate implements the §4.2.1 receive path: record each sender's
// latest contribution in the per-neighbour lookup tables of the group's
// sites. A sender with parallel edges to this vertex sends one message per
// edge in the same superstep; those are merged with the site's ⊞, which is
// exactly the sender's total contribution for any commutative-associative
// operator. A fresh superstep's value replaces the cached one (the cache
// update of Fig. 2b).
func (f *frame[P]) tableUpdate(group int) {
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
func (f *frame[P]) tableFold(site int) float64 {
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
