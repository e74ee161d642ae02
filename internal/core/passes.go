package core

import (
	"fmt"

	"repro/internal/deltav/ast"
	"repro/internal/deltav/typer"
	"repro/internal/deltav/types"
)

// compiler drives the pass pipeline over a cloned, type-checked AST.
type compiler struct {
	in   *ast.Program
	info *typer.Info
	out  *Program

	fieldSlot map[string]int // all fields (user + synthesized) by name
	paramIdx  map[string]int
}

type compileError struct{ err error }

func (c *compiler) errf(format string, args ...any) {
	panic(compileError{fmt.Errorf("deltav: compile: %s", fmt.Sprintf(format, args...))})
}

func (c *compiler) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				err = ce.err
				return
			}
			panic(r)
		}
	}()
	c.fieldSlot = map[string]int{}
	c.paramIdx = map[string]int{}

	c.collectParams()
	c.collectUserFields()

	// P1: aggregation conversion. Builds sites/groups and rewrites each
	// statement body so every aggregation reads its accumulator.
	bodies := make([]ast.Expr, len(c.in.Stmts))
	for pi, s := range c.in.Stmts {
		switch st := s.(type) {
		case *ast.Step:
			bodies[pi] = c.convertAggregations(st.Body, pi)
			c.out.Phases = append(c.out.Phases, Phase{Kind: PhaseStep})
		case *ast.Iter:
			bodies[pi] = c.convertAggregations(st.Body, pi)
			c.out.Phases = append(c.out.Phases, Phase{Kind: PhaseIter, IterVar: st.Var, Until: st.Until})
		}
	}

	// P2: add $old_(group,field) state and $lastnn for memoized products.
	c.addOldFields()
	// P3: add $dirty state per change-driven group.
	c.addDirtyFields()
	// P4: add accumulator state ($acc always; $nn/$nulls for
	// multiplicative memoized sites).
	c.addAccFields()

	// Assemble each phase: receive prologue ++ body ++ send epilogue
	// (P3/P5 shapes) ++ halt (P6).
	for pi := range c.out.Phases {
		items := c.receivePrologue(pi)
		items = append(items, flatten(bodies[pi])...)
		items = append(items, c.sendEpilogue(pi)...)
		if c.haltsInserted(pi) {
			items = append(items, &ast.Halt{Base: ast.Base{Ty: types.Unit}})
			c.out.Phases[pi].Halts = true
		}
		c.out.Phases[pi].Body = &ast.Seq{Base: ast.Base{Ty: types.Unit}, Items: items}
		for _, g := range c.out.Groups {
			if g.Phase == pi {
				c.out.Phases[pi].Groups = append(c.out.Phases[pi].Groups, g.ID)
			}
		}
		for _, s := range c.out.Sites {
			if s.Phase == pi {
				c.out.Phases[pi].Sites = append(c.out.Phases[pi].Sites, s.ID)
			}
		}
	}

	// Resolve names to slots everywhere and compute usage flags.
	c.resolveAll()
	for _, g := range c.out.Groups {
		if n := len(g.Sites); n > c.out.MaxSlotsPerGroup {
			c.out.MaxSlotsPerGroup = n
		}
		for _, sid := range g.Sites {
			g.UsesWeight = g.UsesWeight || c.out.Sites[sid].UsesWeight
		}
	}
	c.out.Lowered = lower(c.out)
	return nil
}

func (c *compiler) collectParams() {
	for i, p := range c.in.Params {
		var def float64
		switch d := p.Default.(type) {
		case *ast.IntLit:
			def = float64(d.Val)
		case *ast.FloatLit:
			def = d.Val
		case *ast.BoolLit:
			if d.Val {
				def = 1
			}
		}
		c.out.Params = append(c.out.Params, ParamSpec{Name: p.Name, Type: p.DeclType, Default: def})
		c.paramIdx[p.Name] = i
	}
}

func (c *compiler) collectUserFields() {
	for _, f := range c.info.Fields {
		c.addField(FieldSpec{Name: f.Name, Type: f.Type, Kind: UserField, Ref: -1})
	}
	c.out.Layout.UserFields = len(c.out.Layout.Fields)
}

func (c *compiler) addField(f FieldSpec) int {
	if _, dup := c.fieldSlot[f.Name]; dup {
		c.errf("internal: duplicate field %q", f.Name)
	}
	slot := len(c.out.Layout.Fields)
	c.out.Layout.Fields = append(c.out.Layout.Fields, f)
	c.fieldSlot[f.Name] = slot
	return slot
}

// strategyFor implements the mode table from the package comment.
func (c *compiler) strategyFor(op ast.AggOp) Strategy {
	switch c.out.Mode {
	case Incremental:
		return StrategyMemoized
	case MemoTable:
		return StrategyTable
	default: // Baseline
		if op.Idempotent() {
			// The "pre-incrementalized" standard compilation (§7.2).
			return StrategyMemoized
		}
		return StrategyScratch
	}
}

// convertAggregations is P1 (§6.1): every ⊞[e | u <- g] becomes a read of
// its accumulator field, and an aggregation site + send group is recorded.
func (c *compiler) convertAggregations(body ast.Expr, phase int) ast.Expr {
	return ast.Rewrite(body, func(e ast.Expr) ast.Expr {
		agg, ok := e.(*ast.Agg)
		if !ok {
			return e
		}
		site := c.newSite(agg, phase)
		return &ast.Field{
			Base: ast.Base{P: agg.P, Ty: agg.Type()},
			Name: accName(site.ID),
			Slot: -1,
		}
	})
}

func accName(site int) string    { return fmt.Sprintf("$acc_s%d", site) }
func nnName(site int) string     { return fmt.Sprintf("$nn_s%d", site) }
func nullsName(site int) string  { return fmt.Sprintf("$nulls_s%d", site) }
func lastnnName(site int) string { return fmt.Sprintf("$lastnn_s%d", site) }
func dirtyName(group int) string { return fmt.Sprintf("$dirty_g%d", group) }
func oldName(group int, field string) string {
	return fmt.Sprintf("$old_g%d_%s", group, field)
}

func (c *compiler) newSite(agg *ast.Agg, phase int) *AggSite {
	s := &AggSite{
		ID:       len(c.out.Sites),
		Op:       agg.Op,
		Dir:      agg.G,
		Type:     agg.Type(),
		Strategy: c.strategyFor(agg.Op),
		Phase:    phase,
		AccSlot:  -1, NNSlot: -1, NullsSlot: -1, LastNNSlot: -1,
		Pos: agg.Pos(), End: agg.End(),
	}
	agg.Site = s.ID

	// The sender-side slot expression: u.f → the sender's own field f.
	s.SlotExpr = ast.Rewrite(agg.Body, func(e ast.Expr) ast.Expr {
		if nf, ok := e.(*ast.NeighborField); ok {
			return &ast.Field{Base: ast.Base{P: nf.P, Ty: nf.Type()}, Name: nf.Name, Slot: -1}
		}
		return e
	})
	seen := map[string]bool{}
	ast.Walk(s.SlotExpr, func(e ast.Expr) bool {
		switch n := e.(type) {
		case *ast.Field:
			if !seen[n.Name] {
				seen[n.Name] = true
				s.Fields = append(s.Fields, c.fieldSlot[n.Name])
			}
		case *ast.EdgeWeight:
			s.UsesWeight = true
		}
		return true
	})

	if s.Multiplicative() && s.UsesWeight {
		c.errf("site %d: %s aggregation body may not use ew (nullary tracking needs an edge-independent value)", s.ID, s.Op)
	}
	if s.Op == ast.AggProd && s.Type == types.Int && s.Strategy == StrategyMemoized {
		c.errf("site %d: incrementalized * aggregation requires a float body (Δ-messages are ratios)", s.ID)
	}

	c.out.Sites = append(c.out.Sites, s)
	c.assignGroup(s)
	return s
}

// assignGroup places a site in the send group keyed by (phase, pull
// direction, strategy); one message per edge carries all of a group's
// slots.
func (c *compiler) assignGroup(s *AggSite) {
	for _, g := range c.out.Groups {
		if g.Phase == s.Phase && g.PullDir == s.Dir && g.Strategy == s.Strategy {
			s.Group = g.ID
			s.SlotInGroup = len(g.Sites)
			g.Sites = append(g.Sites, s.ID)
			return
		}
	}
	g := &SendGroup{
		ID:        len(c.out.Groups),
		PullDir:   s.Dir,
		PushDir:   reverseDir(s.Dir),
		Sites:     []int{s.ID},
		Strategy:  s.Strategy,
		DirtySlot: -1,
		Phase:     s.Phase,
	}
	c.out.Groups = append(c.out.Groups, g)
	s.Group = g.ID
	s.SlotInGroup = 0
}

func reverseDir(d ast.GraphDir) ast.GraphDir {
	switch d {
	case ast.DirIn:
		return ast.DirOut
	case ast.DirOut:
		return ast.DirIn
	}
	return ast.DirNeighbors
}

// changeDriven reports whether a group sends only on change (and therefore
// needs dirty bits and old values).
func (g *SendGroup) changeDriven() bool { return g.Strategy != StrategyScratch }

// addOldFields is P2 (§6.2, Eq. 4): every user field feeding a
// change-driven group gets a most-recently-sent copy, per group so that
// groups with different send schedules never share a baseline.
func (c *compiler) addOldFields() {
	for _, g := range c.out.Groups {
		if !g.changeDriven() {
			continue
		}
		added := map[int]bool{}
		for _, sid := range g.Sites {
			s := c.out.Sites[sid]
			for _, fslot := range s.Fields {
				if added[fslot] {
					continue
				}
				added[fslot] = true
				uf := c.out.Layout.Fields[fslot]
				c.addField(FieldSpec{
					Name: oldName(g.ID, uf.Name),
					Type: uf.Type,
					Kind: OldOfField,
					Ref:  fslot,
				})
			}
			if s.Op == ast.AggProd && s.Strategy == StrategyMemoized {
				s.LastNNSlot = c.addField(FieldSpec{
					Name: lastnnName(s.ID),
					Type: s.Type,
					Kind: LastNNField,
					Ref:  s.ID,
				})
			}
		}
	}
}

// addDirtyFields is P3's state (§6.3): one dirty bit per change-driven
// group, pre-set in the initial vertex state.
func (c *compiler) addDirtyFields() {
	for _, g := range c.out.Groups {
		if g.changeDriven() {
			g.DirtySlot = c.addField(FieldSpec{
				Name: dirtyName(g.ID),
				Type: types.Bool,
				Kind: DirtyField,
				Ref:  g.ID,
			})
		}
	}
}

// addAccFields is P4's state (§6.4): the accumulator per site, plus the
// (nnAcc, aggNulls) pair for multiplicative memoized sites (Eq. 9).
func (c *compiler) addAccFields() {
	for _, s := range c.out.Sites {
		s.AccSlot = c.addField(FieldSpec{Name: accName(s.ID), Type: s.Type, Kind: AccField, Ref: s.ID})
		if s.Multiplicative() {
			s.NNSlot = c.addField(FieldSpec{Name: nnName(s.ID), Type: s.Type, Kind: NNAccField, Ref: s.ID})
			s.NullsSlot = c.addField(FieldSpec{Name: nullsName(s.ID), Type: types.Int, Kind: NullsField, Ref: s.ID})
		}
	}
}

// haltsInserted is P6's applicability rule for one phase. Halt-by-default
// is sound only when a halted vertex's recomputation is fully determined by
// its messages (the paper's determinism assumption, footnote 13). That
// fails when (a) the phase has scratch groups — a silent vertex would break
// receivers' from-scratch re-aggregation — or (b) the body is not
// re-execution stable (it reads the iteration counter or performs a
// non-idempotent self-update like seen = seen + 1), so re-running with no
// new messages could still change state. See bodyStable in analysis.go.
func (c *compiler) haltsInserted(phase int) bool {
	for _, g := range c.out.Groups {
		if g.Phase == phase && !g.changeDriven() {
			return false
		}
	}
	it, ok := c.in.Stmts[phase].(*ast.Iter)
	if !ok {
		return true // a step body runs exactly once; halting is trivially sound
	}
	return bodyStable(it.Body, it.Var)
}

// ---------------------------------------------------------------------------
// AST construction helpers.

func fieldRef(name string, ty types.Type) *ast.Field {
	return &ast.Field{Base: ast.Base{Ty: ty}, Name: name, Slot: -1}
}

func intLit(v int64) *ast.IntLit { return &ast.IntLit{Base: ast.Base{Ty: types.Int}, Val: v} }
func floatLit(v float64) *ast.FloatLit {
	return &ast.FloatLit{Base: ast.Base{Ty: types.Float}, Val: v}
}
func boolLit(v bool) *ast.BoolLit { return &ast.BoolLit{Base: ast.Base{Ty: types.Bool}, Val: v} }

// identityLit returns default_init(⊞, τ) as a literal (§6.1 footnote 11).
func identityLit(op ast.AggOp, ty types.Type) ast.Expr {
	switch ty {
	case types.Bool:
		return boolLit(Identity(op) != 0)
	case types.Int:
		if v := Identity(op); v == float64(int64(v)) {
			return intLit(int64(v))
		}
		// min/max identities are ±∞; keep them as float literals, the
		// runtime value representation is uniform.
		return floatLit(Identity(op))
	default:
		return floatLit(Identity(op))
	}
}

// absorbingLit returns nullary_elem(⊞, τ) (§6.4.1).
func absorbingLit(op ast.AggOp, ty types.Type) ast.Expr {
	v, ok := Absorbing(op)
	if !ok {
		panic("core: absorbingLit on non-multiplicative op")
	}
	if ty == types.Bool {
		return boolLit(v != 0)
	}
	return floatLit(v)
}

// opExpr builds the AST for a ⊞ b.
func opExpr(op ast.AggOp, ty types.Type, a, b ast.Expr) ast.Expr {
	switch op {
	case ast.AggMin:
		return &ast.MinMax{Base: ast.Base{Ty: ty}, IsMax: false, A: a, B: b}
	case ast.AggMax:
		return &ast.MinMax{Base: ast.Base{Ty: ty}, IsMax: true, A: a, B: b}
	default:
		return &ast.Binary{Base: ast.Base{Ty: ty}, Op: op.String(), L: a, R: b}
	}
}

func assign(name string, ty types.Type, v ast.Expr) *ast.Assign {
	return &ast.Assign{Base: ast.Base{Ty: types.Unit}, Name: name, IsField: true, Slot: -1, Value: v}
}

func flatten(e ast.Expr) []ast.Expr {
	if seq, ok := e.(*ast.Seq); ok {
		return seq.Items
	}
	return []ast.Expr{e}
}

// receivePrologue builds the message-application code that opens a phase
// body: Eq. 3 for scratch sites, Eq. 8 for memoized sites, Eq. 9 for
// multiplicative memoized sites, and table update+refold for §4.2.1.
func (c *compiler) receivePrologue(phase int) []ast.Expr {
	var items []ast.Expr
	for _, g := range c.out.Groups {
		if g.Phase != phase {
			continue
		}
		if g.Strategy == StrategyTable {
			items = append(items, &ast.TableUpdate{Base: ast.Base{Ty: types.Unit}, Group: g.ID})
		}
		for _, sid := range g.Sites {
			s := c.out.Sites[sid]
			items = append(items, c.receiveFor(s, g)...)
		}
	}
	return items
}

func (c *compiler) receiveFor(s *AggSite, g *SendGroup) []ast.Expr {
	acc := accName(s.ID)
	switch s.Strategy {
	case StrategyScratch:
		// Eq. 3: tmp := default_init; fold messages; the accumulator
		// field plays the role of tmp.
		return []ast.Expr{
			assign(acc, s.Type, identityLit(s.Op, s.Type)),
			&ast.MsgLoop{Base: ast.Base{Ty: types.Unit}, Group: g.ID, Body: assign(
				acc, s.Type,
				opExpr(s.Op, s.Type, fieldRef(acc, s.Type), &ast.MsgSlot{Base: ast.Base{Ty: s.Type}, Site: s.ID}),
			)},
		}
	case StrategyTable:
		return []ast.Expr{
			assign(acc, s.Type, &ast.TableFold{Base: ast.Base{Ty: s.Type}, Site: s.ID}),
		}
	}
	// Memoized.
	if !s.Multiplicative() {
		// Eq. 8.
		return []ast.Expr{
			&ast.MsgLoop{Base: ast.Base{Ty: types.Unit}, Group: g.ID, Body: assign(
				acc, s.Type,
				opExpr(s.Op, s.Type, fieldRef(acc, s.Type), &ast.MsgSlot{Base: ast.Base{Ty: s.Type}, Site: s.ID}),
			)},
		}
	}
	// Eq. 9: multiplicative with nullary tracking.
	nn, nulls := nnName(s.ID), nullsName(s.ID)
	loop := &ast.MsgLoop{Base: ast.Base{Ty: types.Unit}, Group: g.ID, Body: &ast.If{
		Base: ast.Base{Ty: types.Unit},
		Cond: &ast.MsgIsNull{Base: ast.Base{Ty: types.Bool}, Site: s.ID},
		Then: assign(nulls, types.Int,
			&ast.Binary{Base: ast.Base{Ty: types.Int}, Op: "+", L: fieldRef(nulls, types.Int), R: intLit(1)}),
		Else: &ast.Seq{Base: ast.Base{Ty: types.Unit}, Items: []ast.Expr{
			assign(nn, s.Type, opExpr(s.Op, s.Type, fieldRef(nn, s.Type), &ast.MsgSlot{Base: ast.Base{Ty: s.Type}, Site: s.ID})),
			&ast.If{
				Base: ast.Base{Ty: types.Unit},
				Cond: &ast.MsgPrevNull{Base: ast.Base{Ty: types.Bool}, Site: s.ID},
				Then: assign(nulls, types.Int,
					&ast.Binary{Base: ast.Base{Ty: types.Int}, Op: "-", L: fieldRef(nulls, types.Int), R: intLit(1)}),
			},
		}},
	}}
	commit := &ast.If{
		Base: ast.Base{Ty: types.Unit},
		Cond: &ast.Binary{Base: ast.Base{Ty: types.Bool}, Op: "==", L: fieldRef(nulls, types.Int), R: intLit(0)},
		Then: assign(accName(s.ID), s.Type, fieldRef(nn, s.Type)),
		Else: assign(accName(s.ID), s.Type, absorbingLit(s.Op, s.Type)),
	}
	return []ast.Expr{loop, commit}
}

// sendEpilogue builds the sending code that closes a phase body: Eq. 6/7
// change-gated Δ-message broadcasts for change-driven groups, plain
// full-value broadcasts for scratch groups.
func (c *compiler) sendEpilogue(phase int) []ast.Expr {
	var items []ast.Expr
	for _, g := range c.out.Groups {
		if g.Phase != phase {
			continue
		}
		items = append(items, c.sendFor(g)...)
	}
	return items
}

func (c *compiler) sendFor(g *SendGroup) []ast.Expr {
	// Payload: one slot per site; Δ-wrapped for memoized groups (P5,
	// Eq. 10), full values for scratch and table groups.
	payload := make([]ast.Expr, len(g.Sites))
	for i, sid := range g.Sites {
		s := c.out.Sites[sid]
		slot := ast.Clone(s.SlotExpr)
		if g.Strategy == StrategyMemoized {
			payload[i] = &ast.Delta{Base: ast.Base{Ty: s.Type}, Site: s.ID, X: slot}
		} else {
			payload[i] = slot
		}
	}
	loop := &ast.ForNeighbors{
		Base: ast.Base{Ty: types.Unit},
		Var:  "u",
		G:    g.PushDir,
		Body: &ast.Send{Base: ast.Base{Ty: types.Unit}, DestVar: "u", Group: g.ID, Payload: payload},
	}
	if !g.changeDriven() {
		return []ast.Expr{loop}
	}

	// P3 (Eqs. 5–7): compute the group dirty bit from the externally
	// visible fields, lift the check outside the broadcast loop, and
	// update the most-recently-sent copies after sending.
	var dirtyExpr ast.Expr
	var oldUpdates []ast.Expr
	seen := map[int]bool{}
	for _, sid := range g.Sites {
		s := c.out.Sites[sid]
		for _, fslot := range s.Fields {
			if seen[fslot] {
				continue
			}
			seen[fslot] = true
			uf := c.out.Layout.Fields[fslot]
			chk := &ast.Changed{
				Base: ast.Base{Ty: types.Bool},
				Name: uf.Name, OldName: oldName(g.ID, uf.Name),
				Slot: -1, OldSlot: -1,
			}
			if dirtyExpr == nil {
				dirtyExpr = chk
			} else {
				dirtyExpr = &ast.Binary{Base: ast.Base{Ty: types.Bool}, Op: "||", L: dirtyExpr, R: chk}
			}
			oldUpdates = append(oldUpdates,
				assign(oldName(g.ID, uf.Name), uf.Type, fieldRef(uf.Name, uf.Type)))
		}
		if s.LastNNSlot >= 0 {
			// Remember the last non-null sent value so a later
			// null→non-null Δ can be a correct ratio (see DESIGN.md §6.3).
			oldUpdates = append(oldUpdates, &ast.If{
				Base: ast.Base{Ty: types.Unit},
				Cond: &ast.Binary{Base: ast.Base{Ty: types.Bool}, Op: "!=", L: ast.Clone(s.SlotExpr), R: floatLit(0)},
				Then: assign(lastnnName(s.ID), s.Type, ast.Clone(s.SlotExpr)),
			})
		}
	}
	if dirtyExpr == nil {
		// Constant aggregand (no fields): never dirty after the prime.
		dirtyExpr = boolLit(false)
	}
	gate := &ast.If{
		Base: ast.Base{Ty: types.Unit},
		Cond: fieldRef(dirtyName(g.ID), types.Bool),
		Then: &ast.Seq{Base: ast.Base{Ty: types.Unit}, Items: append([]ast.Expr{loop}, oldUpdates...)},
	}
	return []ast.Expr{
		assign(dirtyName(g.ID), types.Bool, dirtyExpr),
		gate,
	}
}
