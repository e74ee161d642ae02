// Package core implements the paper's primary contribution: the family of
// compile-time program transformations that automatically incrementalize a
// vertex-centric ΔV program (paper §6).
//
// The pipeline mirrors the paper's passes:
//
//	P1 Aggregation conversion (§6.1, Eq. 3): pull-based aggregations are
//	   A-normalized, assigned aggregation sites and send groups, and
//	   replaced by receive loops over messages plus accumulator reads.
//	P2 Adding vertex state (§6.2, Eq. 4): for every field feeding a send,
//	   an $old_f field remembers the most recently sent value.
//	P3 Inserting change checks (§6.3, Eqs. 5–7): a per-group $dirty bit
//	   gates sends, with the check lifted out of the broadcast loop.
//	P4 Incrementalizing aggregations (§6.4, Eqs. 8–9): receive loops become
//	   memoized accumulators; multiplicative operators get the
//	   ($nn, $nulls, $acc) triple with nullary tracking.
//	P5 Δ-message insertion (§6.5, Eqs. 10–11): payload slots are wrapped in
//	   Delta nodes whose synthesized ∆ function satisfies
//	   x ⊞ m′ ≃ (x ⊞ m) ⊞ ∆_m(m′).
//	P6 Addition of halts (§6.6, Eq. 12): halt is appended to every
//	   statement body, making halted the default vertex state.
//
// Three compile modes reproduce the paper's evaluation variants: Incremental
// (ΔV), Baseline (ΔV★ — no message-reduction optimizations), and MemoTable
// (the §4.2.1 lookup-table strawman used as an ablation). Idempotent
// aggregations (min/max) compile identically in Incremental and Baseline
// mode: they are the "pre-incrementalized" standard algorithms of §7.2, so
// ΔV and ΔV★ send exactly the same messages for SSSP and CC, as the paper
// reports.
package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/deltav/ast"
	"repro/internal/deltav/parser"
	"repro/internal/deltav/token"
	"repro/internal/deltav/typer"
	"repro/internal/deltav/types"
)

// Mode selects the compilation variant.
type Mode int

// Compilation modes.
const (
	// Incremental is ΔV: the full P1–P6 pipeline.
	Incremental Mode = iota
	// Baseline is ΔV★: aggregation conversion only. Non-idempotent
	// aggregations recompute from scratch each superstep and vertices
	// re-send full values every body superstep; idempotent aggregations
	// compile as in Incremental mode (see package comment).
	Baseline
	// MemoTable is the §4.2.1 strawman: meaningful-only messages via a
	// per-neighbour lookup table, id-tagged messages, and a full refold of
	// the table at every superstep.
	MemoTable
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case Incremental:
		return "dV"
	case Baseline:
		return "dV*"
	case MemoTable:
		return "dV-memotable"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configure compilation.
type Options struct {
	Mode Mode
	// Epsilon is the §9 "allowable slop": a float field counts as changed
	// only when it differs from the most recently sent value by more than
	// Epsilon. Zero is the paper's exact policy. Only meaningful in
	// Incremental mode.
	Epsilon float64
	// MaxIterations bounds every iter statement (safety net for
	// non-terminating until conditions). Defaults to 10_000.
	MaxIterations int
}

// Strategy is how an aggregation site maintains its value across
// supersteps.
type Strategy int

// Aggregation strategies.
const (
	// StrategyMemoized keeps a persistent accumulator updated by
	// Δ-messages (Eq. 8/9).
	StrategyMemoized Strategy = iota
	// StrategyScratch resets the accumulator each superstep and refolds
	// the full messages received (Eq. 3) — ΔV★ behaviour.
	StrategyScratch
	// StrategyTable keeps a per-neighbour value table and refolds it each
	// superstep (§4.2.1) — MemoTable behaviour.
	StrategyTable
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyMemoized:
		return "memoized"
	case StrategyScratch:
		return "scratch"
	}
	return "table"
}

// AggSite is one aggregation occurrence ⊞[e | u <- g] in the program.
type AggSite struct {
	ID   int
	Op   ast.AggOp
	Dir  ast.GraphDir // pull direction (receiver's perspective)
	Type types.Type
	// SlotExpr is the aggregand evaluated at the *sender*: NeighborField
	// references rewritten to the sender's own fields; EdgeWeight refers
	// to the outgoing edge being sent on.
	SlotExpr ast.Expr
	// Fields are the layout slots of the user fields SlotExpr reads (the
	// externally visible fields of §6.3). OldSlots, parallel to Fields,
	// holds the $old_g_f slots used when recomputing the previous slot
	// value for Δ synthesis (nil for scratch sites).
	Fields   []int
	OldSlots []int
	// UsesWeight reports whether SlotExpr reads the edge weight.
	UsesWeight bool

	Group       int // send group
	SlotInGroup int // index of this site's value in the group's message

	Strategy Strategy
	Phase    int // phase whose body contains the site

	// Synthesized field slots (-1 when absent).
	AccSlot    int // $acc
	NNSlot     int // $nn   (multiplicative, memoized)
	NullsSlot  int // $nulls (multiplicative, memoized)
	LastNNSlot int // $lastnn (product, memoized: last non-null sent value)

	// Pos/End anchor the site's source aggregation expression, for
	// repairability diagnostics.
	Pos, End token.Pos
}

// Multiplicative reports whether the site needs §6.4.1 nullary tracking.
func (s *AggSite) Multiplicative() bool {
	return s.Op.Multiplicative() && s.Strategy == StrategyMemoized
}

// SendGroup is a set of aggregation sites with the same push direction and
// strategy; its sites' values travel in a single message per edge.
type SendGroup struct {
	ID int
	// PullDir is the receiver-side direction; PushDir the sender-side one.
	PullDir, PushDir ast.GraphDir
	Sites            []int
	Strategy         Strategy
	DirtySlot        int // $dirty field (-1 for scratch groups)
	Phase            int
	// UsesWeight reports whether any site reads the edge weight; otherwise
	// one message serves every arc (the Eq. 7 lift).
	UsesWeight bool
}

// FieldKind classifies vertex-state fields.
type FieldKind int

// Field kinds.
const (
	UserField   FieldKind = iota // declared with local in init{}
	OldOfField                   // $old_f: most recently sent value of f (§6.2)
	DirtyField                   // $dirty_g: change flag for a send group (§6.3)
	AccField                     // $acc_s: memoized/scratch accumulator (§6.4)
	NNAccField                   // $nn_s: non-nulled accumulator (§6.4.1)
	NullsField                   // $nulls_s: nullary count (§6.4.1)
	LastNNField                  // $lastnn_s: last non-null sent value (Δ synthesis for *)
)

// String names the field kind.
func (k FieldKind) String() string {
	switch k {
	case UserField:
		return "user"
	case OldOfField:
		return "old"
	case DirtyField:
		return "dirty"
	case AccField:
		return "acc"
	case NNAccField:
		return "nnacc"
	case NullsField:
		return "nulls"
	}
	return "lastnn"
}

// FieldSpec is one vertex-state field in the compiled layout.
type FieldSpec struct {
	Name string
	Type types.Type
	Kind FieldKind
	// Ref is the user-field slot (OldOfField) or site ID (Acc/NN/Nulls/
	// LastNN); -1 otherwise.
	Ref int
}

// Layout is the compiled vertex-state layout.
type Layout struct {
	Fields []FieldSpec
	// UserFields is the number of leading user fields.
	UserFields int
}

// StateMachineBytes is the per-vertex cost of the compiled statement state
// machine (phase counter + iteration counter), charged to every compiled
// variant as in the paper's Table 2 discussion.
const StateMachineBytes = 8

// ByteSize returns the vertex-state size in bytes: each field per its type
// plus the state-machine overhead, rounded up to 8 (matching the C++
// struct accounting the paper uses).
func (l *Layout) ByteSize() int {
	n := StateMachineBytes
	for _, f := range l.Fields {
		n += f.Type.ByteSize()
	}
	if rem := n % 8; rem != 0 {
		n += 8 - rem
	}
	return n
}

// Slot returns the slot of the named field, or -1.
func (l *Layout) Slot(name string) int {
	for i, f := range l.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// PhaseKind distinguishes step and iter phases.
type PhaseKind int

// Phase kinds.
const (
	PhaseStep PhaseKind = iota
	PhaseIter
)

// Phase is one statement of the compiled state machine.
type Phase struct {
	Kind    PhaseKind
	IterVar string
	// Body is the fully transformed statement body (internal AST forms).
	Body ast.Expr
	// Until is the loop condition (nil for step); master-evaluable.
	Until ast.Expr
	// Groups and Sites used by this phase.
	Groups []int
	Sites  []int
	// Halts reports whether P6 appended a halt to this phase's body.
	Halts bool
}

// ParamSpec is a program parameter.
type ParamSpec struct {
	Name    string
	Type    types.Type
	Default float64 // numeric encoding (bools: 0/1)
}

// Program is a fully compiled ΔV program, ready for the VM.
type Program struct {
	Source *ast.Program // untouched input AST
	Mode   Mode
	Opts   Options

	Params []ParamSpec
	Layout Layout
	Init   ast.Expr // resolved init body
	Phases []Phase
	Sites  []*AggSite
	Groups []*SendGroup

	// MaxSlotsPerGroup is the widest message in slots.
	MaxSlotsPerGroup int
	// MaxLetDepth is the deepest let nesting (evaluation stack size).
	MaxLetDepth int
	// UsesNeighbors reports whether any site or cardinality uses
	// #neighbors (requires an undirected graph).
	UsesNeighbors bool
	// UsesIn/UsesOut report whether in-/out-adjacency is read.
	UsesIn, UsesOut bool

	// Lowered is the executable form of every body above (see lower.go):
	// what the VM runs and codegen prints.
	Lowered *Lowered
}

// Compile parses, type-checks and compiles ΔV source text.
func Compile(src string, opts Options) (*Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileAST(prog, opts)
}

// CompileAST compiles a parsed program. The input AST is not modified.
func CompileAST(prog *ast.Program, opts Options) (*Program, error) {
	info, err := typer.Check(prog)
	if err != nil {
		return nil, err
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 10_000
	}
	c := &compiler{
		in:   ast.CloneProgram(prog),
		info: info,
		out: &Program{
			Source: prog,
			Mode:   opts.Mode,
			Opts:   opts,
		},
	}
	if err := c.run(); err != nil {
		return nil, err
	}
	return c.out, nil
}

// Identity returns ⊞'s identity element (default_init of §6.1) as a
// float64-encoded value: x ⊞ identity == x.
func Identity(op ast.AggOp) float64 {
	switch op {
	case ast.AggSum:
		return 0
	case ast.AggProd:
		return 1
	case ast.AggMin:
		return math.Inf(1)
	case ast.AggMax:
		return math.Inf(-1)
	case ast.AggOr:
		return 0 // false
	case ast.AggAnd:
		return 1 // true
	}
	return 0
}

// Absorbing returns ⊞'s absorbing ("nullary", §6.4.1) element and whether
// one exists: absorbing ⊞ x == absorbing.
func Absorbing(op ast.AggOp) (float64, bool) {
	switch op {
	case ast.AggProd:
		return 0, true
	case ast.AggAnd:
		return 0, true // false
	case ast.AggOr:
		return 1, true // true
	}
	return 0, false
}

// Apply evaluates a ⊞ b on float64-encoded values.
func Apply(op ast.AggOp, a, b float64) float64 {
	switch op {
	case ast.AggSum:
		return a + b
	case ast.AggProd:
		return a * b
	case ast.AggMin:
		return math.Min(a, b)
	case ast.AggMax:
		return math.Max(a, b)
	case ast.AggOr:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case ast.AggAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	}
	return a
}

// String renders the compiled program: layout, groups, sites, and the
// transformed bodies in the paper's pseudo-syntax. Golden tests pin this
// output for the paper's running example.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode: %s\n", p.Mode)
	fmt.Fprintf(&b, "state (%d bytes):\n", p.Layout.ByteSize())
	for i, f := range p.Layout.Fields {
		fmt.Fprintf(&b, "  [%d] %s %s (%s)\n", i, f.Name, f.Type, f.Kind)
	}
	for _, g := range p.Groups {
		fmt.Fprintf(&b, "group %d: pull %s push %s sites %v strategy %s dirty-slot %d\n",
			g.ID, g.PullDir, g.PushDir, g.Sites, g.Strategy, g.DirtySlot)
	}
	for _, s := range p.Sites {
		fmt.Fprintf(&b, "site %d: %s over %s slot-expr %s strategy %s acc-slot %d\n",
			s.ID, s.Op, s.Dir, ast.ExprString(s.SlotExpr), s.Strategy, s.AccSlot)
	}
	b.WriteString("init:\n")
	b.WriteString(indentLines(ast.ExprString(p.Init)))
	for i, ph := range p.Phases {
		kind := "step"
		if ph.Kind == PhaseIter {
			kind = "iter " + ph.IterVar
		}
		fmt.Fprintf(&b, "phase %d (%s):\n", i, kind)
		b.WriteString(indentLines(ast.ExprString(ph.Body)))
		if ph.Until != nil {
			fmt.Fprintf(&b, "until: %s\n", ast.ExprString(ph.Until))
		}
	}
	return b.String()
}

func indentLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
