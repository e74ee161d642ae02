package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/fmath"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// The two message kinds. A program whose one send group has one site,
// combinable with sum, min or max, outside memo-table mode, needs no group
// byte, tag or sender: its engine runs at the bare float64 payload, combined
// by a pregel.CombinerFunc of that ⊞ (core.Program.BareOp). Every other
// program runs at Msg[P]. A kind supplies exactly the parts of a machine that
// touch a message; the compiler, the message-free opcodes and the record
// codec are shared. Only the bare kind runs core's kernels: typed loops over
// its []float64 inbox and float64 sends.

// kind is one message kind's half of the compiler and the engine setup.
type kind[M any] interface {
	// recv compiles OpRecv: body runs once per message of group grp.
	recv(grp uint8, body fn[M]) fn[M]
	// val compiles OpMsgVal, and tag OpMsgNull (prev: OpMsgPrevNull), for
	// payload slot i.
	val(i int) fn[M]
	tag(i int, prev bool) fn[M]
	// tableUpdate compiles OpTableUpdate (memo-table mode only).
	tableUpdate(grp int) fn[M]
	// build compiles a send's message: it writes f.msg from the slots and
	// reports whether the message can change an accumulator.
	build(grp uint8, slots []slotFn[M]) func(*frame[M]) bool
	// fold compiles a core.KernelFold receive and arcSend a core.KernelArc
	// send; nil when the kind leaves them to the closures.
	fold(k core.Kernel) fn[M]
	arcSend(a *arcKernel[M]) fn[M]
	// narrow and widen convert from and to the record every message is
	// checkpointed and wired as (the repair planner builds records too).
	narrow(w *wideMsg) M
	widen(m M) wideMsg
	// combiner is nil when no group combines.
	combiner() pregel.Combiner[M]
}

// slot tags a slotFn reports alongside its value.
const (
	tagNone = iota
	tagNull // the slot carries a nullary value (Msg.TagNull)
	tagPrev // the slot's previous message was nullary (Msg.TagPrev)
)

// slotFn computes one payload slot: its value, its tag, and whether the
// slot is a no-op (could not change any accumulator).
type slotFn[M any] func(f *frame[M]) (v float64, tag uint8, noop bool)

// groupRow is one send group as the codec and the combiners see it: its
// slot count, the slots that may carry tags, its combine class (negative:
// not combinable) and each slot's operator.
type groupRow struct {
	nvals, tagged uint8
	class         int
	ops           [MaxSlots]ast.AggOp
}

// groupRows indexes the program's send groups by id. Each combinable group
// (single-strategy, non-multiplicative slots) is a class.
func groupRows(m *Machine) []groupRow {
	rows := make([]groupRow, len(m.prog.Groups))
	classes := 0
	for _, g := range m.prog.Groups {
		row := &rows[g.ID]
		row.nvals, row.class = uint8(len(g.Sites)), -1
		ok := g.Strategy != core.StrategyTable
		for i, s := range m.groupSites(g) {
			row.ops[i] = s.Op
			if s.Multiplicative() {
				row.tagged |= 1 << i
				ok = false // nullary tags are not mergeable
			}
		}
		if ok {
			row.class = classes
			classes++
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Msg[P]: the group, slot count, tags and sender travel with the payload.

type wideKind[P payload] struct{ rows []groupRow }

func (wideKind[P]) recv(grp uint8, body fn[Msg[P]]) fn[Msg[P]] {
	return func(f *frame[Msg[P]]) float64 {
		for i := range f.msgs {
			if f.msgs[i].Group == grp {
				f.cur = &f.msgs[i]
				body(f)
			}
		}
		f.cur = nil
		return 0
	}
}

func (wideKind[P]) val(i int) fn[Msg[P]] {
	return func(f *frame[Msg[P]]) float64 { return f.cur.Vals[i] }
}

func (wideKind[P]) tag(i int, prev bool) fn[Msg[P]] {
	bit := uint8(1) << i
	if prev {
		return func(f *frame[Msg[P]]) float64 { return boolTo01(f.cur.TagPrev&bit != 0) }
	}
	return func(f *frame[Msg[P]]) float64 { return boolTo01(f.cur.TagNull&bit != 0) }
}

func (wideKind[P]) tableUpdate(grp int) fn[Msg[P]] {
	return func(f *frame[Msg[P]]) float64 { tableUpdate(f, grp); return 0 }
}

func (wideKind[P]) build(grp uint8, slots []slotFn[Msg[P]]) func(*frame[Msg[P]]) bool {
	head := Msg[P]{Group: grp, NVals: uint8(len(slots))}
	return func(f *frame[Msg[P]]) bool {
		f.msg = head
		f.msg.Sender = f.u
		send := false
		for i, s := range slots {
			v, tag, noop := s(f)
			f.msg.Vals[i] = v
			switch tag {
			case tagNull:
				f.msg.TagNull |= 1 << i
			case tagPrev:
				f.msg.TagPrev |= 1 << i
			}
			send = send || !noop
		}
		return send
	}
}

func (wideKind[P]) fold(core.Kernel) fn[Msg[P]] { return nil }

func (wideKind[P]) arcSend(*arcKernel[Msg[P]]) fn[Msg[P]] { return nil }

func (wideKind[P]) narrow(w *wideMsg) Msg[P] {
	m := Msg[P]{Group: w.Group, NVals: w.NVals, TagNull: w.TagNull, TagPrev: w.TagPrev, Sender: w.Sender}
	for i := 0; i < len(m.Vals); i++ {
		m.Vals[i] = w.Vals[i]
	}
	return m
}

func (wideKind[P]) widen(m Msg[P]) wideMsg {
	w := wideMsg{Group: m.Group, NVals: m.NVals, TagNull: m.TagNull, TagPrev: m.TagPrev, Sender: m.Sender}
	for i := 0; i < len(m.Vals); i++ {
		w.Vals[i] = m.Vals[i]
	}
	return w
}

// combiner combines each combinable group as one class, slot-wise with its
// sites' operators; every other message passes through as sent.
func (k wideKind[P]) combiner() pregel.Combiner[Msg[P]] {
	c := &vmCombiner[P]{rows: k.rows}
	for _, g := range k.rows {
		c.classes = max(c.classes, g.class+1)
	}
	if c.classes == 0 {
		return nil
	}
	return c
}

// vmCombiner is indexed by Msg.Group.
type vmCombiner[P payload] struct {
	rows    []groupRow
	classes int
}

func (c *vmCombiner[P]) Classes() int { return c.classes }

func (c *vmCombiner[P]) Class(msg *Msg[P]) int { return c.rows[msg.Group].class }

// Combine merges m into acc, a message of the same group, slot-wise with
// each slot's ⊞ (sum, min and max inline: they are nearly every combine).
func (c *vmCombiner[P]) Combine(acc, m *Msg[P]) {
	g := &c.rows[acc.Group]
	for i := 0; i < int(g.nvals); i++ {
		switch a, b := acc.Vals[i], m.Vals[i]; g.ops[i] {
		case ast.AggSum:
			acc.Vals[i] = a + b
		case ast.AggMin:
			acc.Vals[i] = fmath.Min(a, b)
		case ast.AggMax:
			acc.Vals[i] = fmath.Max(a, b)
		default:
			acc.Vals[i] = core.Apply(g.ops[i], a, b)
		}
	}
}

// ---------------------------------------------------------------------------
// float64: the bare payload of a one-group program, whose group is 0.

type bareKind ast.AggOp

func (bareKind) recv(_ uint8, body fn[float64]) fn[float64] {
	return func(f *frame[float64]) float64 {
		for i := range f.msgs {
			f.cur = &f.msgs[i]
			body(f)
		}
		f.cur = nil
		return 0
	}
}

func (bareKind) val(int) fn[float64] { return func(f *frame[float64]) float64 { return *f.cur } }

// tag: a bare program has no multiplicative site, so no message is tagged.
func (bareKind) tag(int, bool) fn[float64] { return func(*frame[float64]) float64 { return 0 } }

func (bareKind) tableUpdate(int) fn[float64] { panic("vm: a bare program has no memo tables") }

func (bareKind) build(_ uint8, slots []slotFn[float64]) func(*frame[float64]) bool {
	s := slots[0]
	return func(f *frame[float64]) bool {
		v, _, noop := s(f)
		f.msg = v
		return !noop
	}
}

func (bareKind) narrow(w *wideMsg) float64 { return w.Vals[0] }

// widen writes sender 0: no reader of a non-memo program looks at it.
func (bareKind) widen(v float64) wideMsg { return wideMsg{NVals: 1, Vals: [MaxSlots]float64{v}} }

func (k bareKind) combiner() pregel.Combiner[float64] {
	switch ast.AggOp(k) {
	case ast.AggSum:
		return pregel.CombinerFunc[float64](func(a, b float64) float64 { return a + b })
	case ast.AggMin:
		return pregel.CombinerFunc[float64](fmath.Min)
	}
	return pregel.CombinerFunc[float64](fmath.Max)
}

// fold runs acc = acc ⊕ m over the inbox in a register, in the closures'
// operand order.
func (bareKind) fold(k core.Kernel) fn[float64] {
	s := k.Slot
	switch k.Op {
	case ast.AggSum:
		return func(f *frame[float64]) float64 {
			acc := f.row[s]
			for _, m := range f.msgs {
				acc += m
			}
			f.row[s] = acc
			return 0
		}
	case ast.AggMin:
		return func(f *frame[float64]) float64 {
			acc := f.row[s]
			for _, m := range f.msgs {
				acc = fmath.Min(acc, m)
			}
			f.row[s] = acc
			return 0
		}
	}
	return func(f *frame[float64]) float64 {
		acc := f.row[s]
		for _, m := range f.msgs {
			acc = fmath.Max(acc, m)
		}
		f.row[s] = acc
		return 0
	}
}

// arcSend evaluates the slot's x once per call and sends x ⊕ w per arc. A
// full value is a no-op on an arc where it is ⊞'s identity, and on every arc
// when x makes it the identity for any finite weight (core.ArcSum.Dead). A
// Δ is a no-op where the new and old values are equal; otherwise it sends
// the new value, counting a move against ⊞, or for a sum the difference.
func (bareKind) arcSend(a *arcKernel[float64]) fn[float64] {
	arc, id, g := a.Arc, a.id, a.m.g
	if !a.Delta {
		return func(f *frame[float64]) float64 {
			x := a.x(f)
			if arc.Dead(x, id) && g.FiniteWeights() {
				return 0
			}
			for a.arcs(&f.arcs, f.u); f.arcs.Next(); {
				if v := arc.At(x, f.arcs.Weight()); v != id {
					f.ctx.Send(f.arcs.To(), v)
				}
			}
			return 0
		}
	}
	sum, isMin := a.Op == ast.AggSum, a.Op == ast.AggMin
	return func(f *frame[float64]) float64 {
		xNew, xOld := a.x(f), a.old(f)
		var against int64
		for a.arcs(&f.arcs, f.u); f.arcs.Next(); {
			w := f.arcs.Weight()
			v, old := arc.At(xNew, w), arc.At(xOld, w)
			switch {
			case v == old:
				continue
			case sum:
				v -= old
			case isMin && v > old || !isMin && v < old:
				against++
			}
			f.ctx.Send(f.arcs.To(), v)
		}
		if against != 0 {
			a.m.nonMonotone.Add(against)
		}
		return 0
	}
}

// ---------------------------------------------------------------------------

// recordCodec is the portable codec for in-flight messages of both kinds: a
// fixed 40-byte little-endian record (group, slot count, the two tag bytes, a
// u32 sender, MaxSlots float64 slots, zero past the slot count), so
// checkpoints and shard frames are the same bytes at every width and kind.
// Decoding refuses a record the program cannot have sent: a group it does
// not have, another slot count, a tag on a slot that carries none.
type recordCodec[M any] struct {
	k    kind[M]
	rows []groupRow
}

const recordBytes = 8 + 8*MaxSlots

func (c recordCodec[M]) AppendValue(dst []byte, m M) []byte {
	w := c.k.widen(m)
	dst = append(dst, w.Group, w.NVals, w.TagNull, w.TagPrev)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.Sender))
	for _, v := range w.Vals {
		dst = pregel.AppendFloat64(dst, v)
	}
	return dst
}

func (c recordCodec[M]) DecodeValue(src []byte) (M, []byte, error) {
	var zero M
	if len(src) < recordBytes {
		return zero, nil, recordError("truncated")
	}
	w := wideMsg{Group: src[0], NVals: src[1], TagNull: src[2], TagPrev: src[3],
		Sender: graph.VertexID(binary.LittleEndian.Uint32(src[4:]))}
	for i := range w.Vals {
		w.Vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8+8*i:]))
	}
	if int(w.Group) >= len(c.rows) {
		return zero, nil, recordError("group %d, program has %d", w.Group, len(c.rows))
	}
	if g := &c.rows[w.Group]; w.NVals != g.nvals || (w.TagNull|w.TagPrev)&^g.tagged != 0 {
		return zero, nil, recordError("group %d with %d slots and tags %#x/%#x, want %d slots and tags within %#x",
			w.Group, w.NVals, w.TagNull, w.TagPrev, g.nvals, g.tagged)
	}
	for i := int(w.NVals); i < MaxSlots; i++ {
		if math.Float64bits(w.Vals[i]) != 0 {
			return zero, nil, recordError("slot %d is past the group's %d slots", i, w.NVals)
		}
	}
	return c.k.narrow(&w), src[recordBytes:], nil
}

func recordError(format string, args ...any) error {
	return fmt.Errorf("%w: ΔV message: %s", pregel.ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}
