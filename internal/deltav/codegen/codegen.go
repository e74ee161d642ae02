// Package codegen emits readable Go source for a compiled ΔV program —
// the moral equivalent of the Pregel+ C++ the paper's compiler produces.
// The generated file is self-contained (it declares the vertex-state
// struct, the message struct, a Context interface, and the synthesized
// computeDelta functions of §3.3/§6.5) and compiles on its own.
//
// The generator prints the lowered program (core.Lowered), the same one the
// vm package executes, so the two cannot disagree: Init carries the field
// defaults and phase 0's prime, a change check honours ε, a Δ-message is
// sent only when some slot is meaningful. Tests build the generated source
// with the Go toolchain to keep it honest.
package codegen

import (
	"fmt"
	"go/format"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/deltav/ast"
)

// Generate renders prog as a Go source file in the given package. All ΔV
// values are float64-encoded (bools 0/1), matching the runtime.
func Generate(prog *core.Program, pkg string) (string, error) {
	g := &gen{p: prog, code: prog.Lowered}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by dvc (mode %s). DO NOT EDIT.\n", prog.Mode)
	b.WriteString("//\n// ΔV values are float64-encoded: booleans are 0/1 and integers are\n")
	b.WriteString("// integral floats. b2f/f2b bridge Go's bool.\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	b.WriteString("import \"math\"\n\n")
	g.runtime(&b)
	g.state(&b)
	g.deltas(&b)
	g.fn(&b, "// Init runs at superstep 0: the synthesized fields' defaults, the\n// init{} block, and phase 0's full-value prime (§6.1).\n",
		"Init(ctx Context, v *VertexState)", func(w *strings.Builder) { g.stmt(w, g.code.Init) })
	for i, ph := range g.code.Phases {
		kind := "step"
		if g.p.Phases[i].Kind == core.PhaseIter {
			kind = "iter " + g.p.Phases[i].IterVar
		}
		g.fn(&b, fmt.Sprintf("// ComputePhase%d is the compiled body of phase %d (%s). The iteration\n// counter is master-maintained; changed feeds the fixpoint aggregator.\n", i, i, kind),
			fmt.Sprintf("ComputePhase%d(ctx Context, v *VertexState, msgs []Message, iter int) (changed bool)", i),
			func(w *strings.Builder) {
				g.stmt(w, ph.Body)
				w.WriteString("return\n")
			})
		if i > 0 {
			g.fn(&b, fmt.Sprintf("// PrimePhase%d starts phase %d with its groups' full values (§6.1).\n", i, i),
				fmt.Sprintf("PrimePhase%d(ctx Context, v *VertexState)", i), func(w *strings.Builder) { g.stmt(w, ph.Prime) })
		}
		if ph.Until != core.NoRef {
			g.master = true
			g.fn(&b, fmt.Sprintf("// UntilPhase%d is the loop condition, evaluated at the master with the\n// global fixpoint aggregator.\n", i),
				fmt.Sprintf("UntilPhase%d(iter int, fixpoint bool, numVertices int) bool", i),
				func(w *strings.Builder) { fmt.Fprintf(w, "return %s\n", g.cond(ph.Until)) })
			g.master = false
		}
	}
	src := b.String()
	out, err := format.Source([]byte(src))
	if err != nil {
		return "", fmt.Errorf("codegen: generated source does not format: %w\n%s", err, src)
	}
	return string(out), nil
}

type gen struct {
	p    *core.Program
	code *core.Lowered
	// master is set while rendering an until{} condition; usesLets while
	// rendering a function body that reads or writes a let slot.
	master, usesLets bool
}

// fn renders one function; body writes its statements.
func (g *gen) fn(b *strings.Builder, doc, sig string, body func(*strings.Builder)) {
	var w strings.Builder
	g.usesLets = false
	body(&w)
	b.WriteString(doc)
	fmt.Fprintf(b, "func %s {\n", sig)
	if g.usesLets {
		fmt.Fprintf(b, "var lets [%d]float64\n", g.code.Lets)
	}
	b.WriteString(w.String())
	b.WriteString("}\n\n")
}

// goName converts a compiler field name ($acc_s0, $old_g0_pr, pr) into a
// Go identifier (accS0, oldG0Pr, pr).
func goName(name string) string {
	name = strings.TrimPrefix(name, "$")
	parts := strings.Split(name, "_")
	out := parts[0]
	for _, p := range parts[1:] {
		if p == "" {
			continue
		}
		out += strings.ToUpper(p[:1]) + p[1:]
	}
	return out
}

func (g *gen) field(slot int32) string { return "v." + goName(g.p.Layout.Fields[slot].Name) }

func (g *gen) runtime(b *strings.Builder) {
	fmt.Fprintf(b, `// Message carries one send group's slot values plus the §6.4.1 tags.
type Message struct {
	Group   uint8
	TagNull uint8
	TagPrev uint8
	Vals    [%d]float64
}

// Edge is one adjacency entry.
type Edge struct {
	To     uint32
	Weight float64
}

// Context is the engine interface the generated compute functions need.
type Context interface {
	ID() uint32
	NumVertices() int
	OutEdges() []Edge
	InEdges() []Edge
	OutDegree() int
	InDegree() int
	Send(to uint32, m Message)
	VoteToHalt()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func f2b(f float64) bool { return f != 0 }

// set stores x in a user field and reports whether the value changed.
func set(field *float64, x float64) bool {
	changed := *field != x
	*field = x
	return changed
}

var _ = math.Inf // keep the import alive for programs that never use infty

`, max(1, g.p.MaxSlotsPerGroup))
}

func (g *gen) state(b *strings.Builder) {
	b.WriteString("// VertexState is the compiled vertex state (paper §6.2–§6.4).\n")
	b.WriteString("type VertexState struct {\n")
	for _, f := range g.p.Layout.Fields {
		comment := ""
		switch f.Kind {
		case core.OldOfField:
			comment = " // most recently sent (§6.2)"
		case core.DirtyField:
			comment = " // change flag (§6.3)"
		case core.AccField:
			comment = " // memoized aggregation (§6.4)"
		case core.NNAccField:
			comment = " // non-nulled accumulator (§6.4.1)"
		case core.NullsField:
			comment = " // nullary count (§6.4.1)"
		case core.LastNNField:
			comment = " // last non-null sent value (§6.5)"
		}
		fmt.Fprintf(b, "\t%s float64%s\n", goName(f.Name), comment)
	}
	b.WriteString("}\n\n")
	if len(g.p.Params) > 0 {
		b.WriteString("// Params are the program parameters with their defaults.\n")
		b.WriteString("var Params = struct {\n")
		for _, p := range g.p.Params {
			fmt.Fprintf(b, "\t%s float64\n", goName(p.Name))
		}
		b.WriteString("}{\n")
		for _, p := range g.p.Params {
			fmt.Fprintf(b, "\t%s: %v,\n", goName(p.Name), p.Default)
		}
		b.WriteString("}\n\n")
	}
}

// deltas emits one computeDelta function per memoized aggregation site
// (§3.3, Eq. 11); a send calls it only when the new value differs from the
// old one.
func (g *gen) deltas(b *strings.Builder) {
	for _, s := range g.p.Sites {
		if g.p.Groups[s.Group].Strategy != core.StrategyMemoized {
			continue
		}
		switch s.Op {
		case ast.AggSum:
			fmt.Fprintf(b, `// computeDelta%d synthesizes Δ for ⊞ = + (Eq. 11): acc + new == (acc + old) + Δ.
func computeDelta%d(oldMsg, newMsg float64) float64 {
	return newMsg - oldMsg
}

`, s.ID, s.ID)
		case ast.AggMin, ast.AggMax:
			fmt.Fprintf(b, `// computeDelta%d synthesizes Δ for the idempotent ⊞ = %s: the new value
// is its own Δ (requires monotone updates).
func computeDelta%d(oldMsg, newMsg float64) float64 {
	_ = oldMsg
	return newMsg
}

`, s.ID, s.Op, s.ID)
		case ast.AggProd:
			fmt.Fprintf(b, `// computeDelta%d synthesizes Δ for ⊞ = * with nullary tracking (§6.4.1):
// the Δ of a null→non-null transition is a ratio against the last
// non-null value, tagged prev_nullary.
func computeDelta%d(oldMsg, newMsg, lastNonNull float64) (delta float64, isNull, prevNull bool) {
	switch {
	case newMsg == 0:
		return 0, true, false
	case oldMsg == 0:
		return newMsg / lastNonNull, false, true
	default:
		return newMsg / oldMsg, false, false
	}
}

`, s.ID, s.ID)
		case ast.AggAnd, ast.AggOr:
			abs, _ := core.Absorbing(s.Op)
			fmt.Fprintf(b, `// computeDelta%d synthesizes Δ for the boolean ⊞ = %s (absorbing %v).
func computeDelta%d(oldMsg, newMsg float64) (delta float64, isNull, prevNull bool) {
	_ = oldMsg
	if newMsg == %v {
		return newMsg, true, false
	}
	return newMsg, false, true
}

`, s.ID, s.Op, abs, s.ID, abs)
		}
	}
}

// The printers below emit unindented lines; format.Source indents them.

// stmt renders node r in statement position.
func (g *gen) stmt(b *strings.Builder, r core.Ref) {
	n := &g.code.Nodes[r]
	switch n.Op {
	case core.OpSeq:
		for _, it := range n.Args {
			g.stmt(b, it)
		}
	case core.OpConst:
		// A no-op (a folded if without else).
	case core.OpStore:
		fmt.Fprintf(b, "%s = %s\n", g.field(n.A), g.expr(n.X))
	case core.OpStoreUser:
		fmt.Fprintf(b, "changed = set(&%s, %s) || changed\n", g.field(n.A), g.expr(n.X))
	case core.OpSetLet:
		g.usesLets = true
		fmt.Fprintf(b, "lets[%d] = %s\n", n.A, g.expr(n.X))
	case core.OpIf:
		fmt.Fprintf(b, "if %s {\n", g.cond(n.X))
		g.stmt(b, n.Y)
		if n.Z != core.NoRef {
			b.WriteString("} else {\n")
			g.stmt(b, n.Z)
		}
		b.WriteString("}\n")
	case core.OpRecv:
		fmt.Fprintf(b, "for mi := range msgs {\nm := &msgs[mi]\nif m.Group != %d {\ncontinue\n}\n", n.A)
		g.stmt(b, n.X)
		b.WriteString("}\n")
	case core.OpBroadcast, core.OpSendEach:
		g.send(b, n)
	case core.OpHalt:
		b.WriteString("ctx.VoteToHalt()\n")
	case core.OpTableUpdate:
		b.WriteString("// §4.2.1 lookup-table update elided in generated code (see vm package).\n")
	default:
		fmt.Fprintf(b, "_ = %s\n", g.expr(r))
	}
}

// send renders a send of group n.A: a message built once and broadcast, or
// one built per edge with that edge's weight. It goes out unless every slot
// is a no-op.
func (g *gen) send(b *strings.Builder, n *core.Node) {
	edges := "ctx.OutEdges()"
	if ast.GraphDir(n.B) == ast.DirIn {
		edges = "ctx.InEdges()"
	}
	fmt.Fprintf(b, "// Send group %d's message unless every slot is a no-op (§6.5).\n", n.A)
	loop := fmt.Sprintf("for _, e := range %s {\n", edges)
	if n.Op == core.OpBroadcast {
		b.WriteString("{\n")
	} else {
		b.WriteString(loop)
	}
	fmt.Fprintf(b, "msg := Message{Group: %d}\nsend := false\n", n.A)
	for i, r := range n.Args {
		g.slot(b, i, r)
	}
	b.WriteString("if send {\n")
	if n.Op == core.OpBroadcast {
		fmt.Fprintf(b, "%sctx.Send(e.To, msg)\n}\n", loop)
	} else {
		b.WriteString("ctx.Send(e.To, msg)\n")
	}
	b.WriteString("}\n}\n")
}

// slot renders payload slot i: a Δ (Eq. 11), a full value (§6.1), or a
// plain value.
func (g *gen) slot(b *strings.Builder, i int, r core.Ref) {
	n := &g.code.Nodes[r]
	switch n.Op {
	case core.OpDelta:
		s := g.p.Sites[n.A]
		fmt.Fprintf(b, "new%d, old%d := %s, %s\nif new%d != old%d {\n", i, i, g.expr(n.X), g.expr(n.Y), i, i)
		switch s.Op {
		case ast.AggProd, ast.AggAnd, ast.AggOr:
			lastNN := ""
			if s.Op == ast.AggProd {
				lastNN = ", " + g.field(int32(s.LastNNSlot))
			}
			fmt.Fprintf(b, "var null%d, prev%d bool\nmsg.Vals[%d], null%d, prev%d = computeDelta%d(old%d, new%d%s)\n",
				i, i, i, i, i, s.ID, i, i, lastNN)
			fmt.Fprintf(b, "if null%d {\nmsg.TagNull |= 1 << %d\n}\nif prev%d {\nmsg.TagPrev |= 1 << %d\n}\n", i, i, i, i)
		default:
			fmt.Fprintf(b, "msg.Vals[%d] = computeDelta%d(old%d, new%d)\n", i, s.ID, i, i)
		}
		b.WriteString("send = true\n")
		if id := core.Identity(s.Op); id != 0 {
			fmt.Fprintf(b, "} else {\nmsg.Vals[%d] = %s // ⊞'s identity\n", i, formatFloat(id))
		}
		b.WriteString("}\n")
	case core.OpFull:
		s := g.p.Sites[n.A]
		fmt.Fprintf(b, "msg.Vals[%d] = %s\n", i, g.expr(n.X))
		if s.Multiplicative() {
			abs, _ := core.Absorbing(s.Op)
			fmt.Fprintf(b, "if msg.Vals[%d] == %s {\nmsg.TagNull |= 1 << %d\nsend = true\n} else ", i, formatFloat(abs), i)
		}
		fmt.Fprintf(b, "if msg.Vals[%d] != %s {\nsend = true\n}\n", i, formatFloat(core.Identity(s.Op)))
	default:
		fmt.Fprintf(b, "msg.Vals[%d] = %s\nsend = true\n", i, g.expr(r))
	}
}

// cond renders node r as a Go bool expression.
func (g *gen) cond(r core.Ref) string {
	n := &g.code.Nodes[r]
	switch n.Op {
	case core.OpLt, core.OpGt, core.OpLe, core.OpGe, core.OpEq, core.OpNe:
		return fmt.Sprintf("%s %s %s", g.expr(n.X), n.Op.Symbol(), g.expr(n.Y))
	case core.OpAnd, core.OpOr:
		return fmt.Sprintf("(%s %s %s)", g.cond(n.X), n.Op.Symbol(), g.cond(n.Y))
	case core.OpNot:
		return fmt.Sprintf("!(%s)", g.cond(n.X))
	case core.OpChanged:
		return fmt.Sprintf("math.Abs(%s-%s) > %s", g.field(n.A), g.field(n.B), formatFloat(n.K))
	case core.OpMsgNull:
		return fmt.Sprintf("m.TagNull&(1<<%d) != 0", n.A)
	case core.OpMsgPrevNull:
		return fmt.Sprintf("m.TagPrev&(1<<%d) != 0", n.A)
	case core.OpFixpoint:
		return "fixpoint"
	}
	return fmt.Sprintf("f2b(%s)", g.expr(r))
}

// expr renders node r as a float64-valued Go expression.
func (g *gen) expr(r core.Ref) string {
	n := &g.code.Nodes[r]
	switch n.Op {
	case core.OpConst:
		return formatFloat(n.K)
	case core.OpLoad:
		return g.field(n.A)
	case core.OpLetRef:
		g.usesLets = true
		return fmt.Sprintf("lets[%d]", n.A)
	case core.OpParam:
		return "Params." + goName(g.p.Params[n.A].Name)
	case core.OpIter:
		return "float64(iter)"
	case core.OpFixpoint:
		return "b2f(fixpoint)"
	case core.OpGraphSize:
		if g.master {
			return "float64(numVertices)"
		}
		return "float64(ctx.NumVertices())"
	case core.OpVertexID:
		return "float64(ctx.ID())"
	case core.OpWeight:
		return "e.Weight"
	case core.OpDegree:
		if ast.GraphDir(n.A) == ast.DirIn {
			return "float64(ctx.InDegree())"
		}
		return "float64(ctx.OutDegree())"
	case core.OpNeg:
		return fmt.Sprintf("(-%s)", g.expr(n.X))
	case core.OpAdd, core.OpSub, core.OpMul, core.OpDiv:
		return fmt.Sprintf("(%s %s %s)", g.expr(n.X), n.Op.Symbol(), g.expr(n.Y))
	case core.OpMin:
		return fmt.Sprintf("math.Min(%s, %s)", g.expr(n.X), g.expr(n.Y))
	case core.OpMax:
		return fmt.Sprintf("math.Max(%s, %s)", g.expr(n.X), g.expr(n.Y))
	case core.OpNot, core.OpLt, core.OpGt, core.OpLe, core.OpGe, core.OpEq, core.OpNe,
		core.OpAnd, core.OpOr, core.OpChanged, core.OpMsgNull, core.OpMsgPrevNull:
		return fmt.Sprintf("b2f(%s)", g.cond(r))
	case core.OpIf:
		els := "0.0"
		if n.Z != core.NoRef {
			els = g.expr(n.Z)
		}
		return fmt.Sprintf("func() float64 {\nif %s {\nreturn %s\n}\nreturn %s\n}()", g.cond(n.X), g.expr(n.Y), els)
	case core.OpMsgVal:
		return fmt.Sprintf("m.Vals[%d]", n.A)
	case core.OpTableFold:
		return "float64(0) /* §4.2.1 table fold elided */"
	case core.OpSeq:
		// A sequence in value position: its last item is the value.
		if k := len(n.Args); k > 0 {
			var b strings.Builder
			b.WriteString("func() float64 {\n")
			for _, it := range n.Args[:k-1] {
				g.stmt(&b, it)
			}
			fmt.Fprintf(&b, "return %s\n}()", g.expr(n.Args[k-1]))
			return b.String()
		}
	}
	// A statement (or an empty sequence) in value position evaluates to 0.
	var b strings.Builder
	b.WriteString("func() float64 {\n")
	g.stmt(&b, r)
	b.WriteString("return 0\n}()")
	return b.String()
}

func formatFloat(v float64) string {
	if v == 0 && math.Signbit(v) {
		return "math.Copysign(0, -1)" // a Go constant -0.0 is +0
	}
	s := fmt.Sprintf("%g", v)
	if strings.Contains(s, "Inf") {
		if strings.HasPrefix(s, "-") {
			return "math.Inf(-1)"
		}
		return "math.Inf(1)"
	}
	if s == "NaN" {
		return "math.NaN()"
	}
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
