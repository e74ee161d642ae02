package analysis

import (
	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/deltav/types"
)

// eachBody visits every statement body; iter is nil for step phases.
func eachBody(prog *ast.Program, fn func(body ast.Expr, iter *ast.Iter)) {
	for _, s := range prog.Stmts {
		switch st := s.(type) {
		case *ast.Step:
			fn(st.Body, nil)
		case *ast.Iter:
			fn(st.Body, st)
		}
	}
}

// assignedFields returns the names of fields assigned in any statement
// body (Assign.IsField is set by the type checker, so Vet requires a
// checked program).
func assignedFields(prog *ast.Program) map[string]bool {
	out := map[string]bool{}
	eachBody(prog, func(body ast.Expr, _ *ast.Iter) {
		ast.Walk(body, func(e ast.Expr) bool {
			if a, ok := e.(*ast.Assign); ok && a.IsField {
				out[a.Name] = true
			}
			return true
		})
	})
	return out
}

// meaningfulness flags aggregations inside iter loops whose input can
// never change after init{}: every re-aggregation then yields the value
// of the first superstep, so the incremental machinery maintains a
// constant. (Step phases run once, where a static aggregation is a
// perfectly sensible one-shot computation — degreesum does exactly that.)
var meaningfulnessAnalyzer = &Analyzer{
	Name: "meaningfulness",
	Doc:  "warn on iter aggregations whose input can never change after init{}",
	Run: func(p *Pass) {
		assigned := assignedFields(p.Program)
		eachBody(p.Program, func(body ast.Expr, iter *ast.Iter) {
			if iter == nil {
				return
			}
			ast.Walk(body, func(e ast.Expr) bool {
				agg, ok := e.(*ast.Agg)
				if !ok {
					return true
				}
				live := false
				ast.Walk(agg.Body, func(b ast.Expr) bool {
					if nf, ok := b.(*ast.NeighborField); ok && assigned[nf.Name] {
						live = true
					}
					return true
				})
				if !live {
					p.Warnf(agg,
						"compute it once in a step{} phase instead",
						"aggregation input never changes after init{}, so every iteration of %q re-derives the same value",
						iter.Var)
				}
				return true
			})
		})
	},
}

// convergence flags iter loops with no visible termination driver, and
// exact-float fixpoint loops. An until{} that mentions neither fixpoint
// nor the iteration counter can only terminate through the MaxIterations
// safety net; a fixpoint over float state re-aggregated with a
// non-idempotent operator and ε = 0 (§9's allowable slop disabled) can be
// kept spinning by floating-point noise alone.
var convergenceAnalyzer = &Analyzer{
	Name: "convergence",
	Doc:  "warn on until{} conditions with no termination driver and on exact-float fixpoints",
	Run: func(p *Pass) {
		eachBody(p.Program, func(body ast.Expr, iter *ast.Iter) {
			if iter == nil {
				return
			}
			usesFix, usesCounter := false, false
			ast.Walk(iter.Until, func(e ast.Expr) bool {
				switch n := e.(type) {
				case *ast.FixpointRef:
					usesFix = true
				case *ast.Var:
					if n.Name == iter.Var {
						usesCounter = true
					}
				}
				return true
			})
			if !usesFix && !usesCounter {
				p.Warnf(iter.Until,
					"bound the loop on the iteration counter or on fixpoint",
					"until{} references neither fixpoint nor the iteration counter %q: the loop can only stop via the MaxIterations safety net",
					iter.Var)
			}
			if usesFix && p.Config.Epsilon == 0 {
				ast.Walk(body, func(e ast.Expr) bool {
					agg, ok := e.(*ast.Agg)
					if !ok || agg.Op.Idempotent() || agg.Type() != types.Float {
						return true
					}
					p.Warnf(agg,
						"pass a small -epsilon slop (§9)",
						"fixpoint loop re-aggregates %s over floats with epsilon 0: floating-point noise can keep the change check true forever",
						agg.Op)
					return true
				})
			}
		})
	},
}

// deadfield flags vertex state that the program never touches again after
// init{} — neither read (directly or as a neighbour's field) nor updated
// — and params that are never referenced. Output fields (assigned but
// never read) and static inputs (read but never assigned) are live.
var deadfieldAnalyzer = &Analyzer{
	Name: "deadfield",
	Doc:  "warn on fields never read nor updated after init{}, and on unused params",
	Run: func(p *Pass) {
		read := map[string]bool{}
		noteReads := func(e ast.Expr) {
			ast.Walk(e, func(x ast.Expr) bool {
				switch n := x.(type) {
				case *ast.Var:
					read[n.Name] = true
				case *ast.NeighborField:
					read[n.Name] = true
				}
				return true
			})
		}
		noteReads(p.Program.Init)
		eachBody(p.Program, func(body ast.Expr, iter *ast.Iter) {
			noteReads(body)
			if iter != nil {
				noteReads(iter.Until)
			}
		})
		assigned := assignedFields(p.Program)
		ast.Walk(p.Program.Init, func(e ast.Expr) bool {
			if l, ok := e.(*ast.Local); ok && !read[l.Name] && !assigned[l.Name] {
				p.Warnf(l, "remove the field or use it",
					"field %q is never read and never updated after init{}", l.Name)
			}
			return true
		})
		for _, pm := range p.Program.Params {
			if !read[pm.Name] {
				p.WarnfAt(pm.P, "remove the param or use it", "param %q is never used", pm.Name)
			}
		}
	},
}

// initonly flags iter bodies that are not re-execution stable: state that
// keeps moving even when no new messages arrive. Such a body disables
// halt-by-default (P6, §6.6) — re-running it is not a no-op, so vertices
// can never vote to halt and every superstep runs the full vertex set.
var initonlyAnalyzer = &Analyzer{
	Name: "initonly",
	Doc:  "warn on iter bodies that mutate state unconditionally, disabling halt-by-default (§6.6)",
	Run: func(p *Pass) {
		eachBody(p.Program, func(body ast.Expr, iter *ast.Iter) {
			if iter == nil || core.ReExecutionStable(body, iter.Var) {
				return
			}
			p.Warnf(iter,
				"restrict self-updates to idempotent forms (min/max, ||, &&) or derive state from aggregations only",
				"iter %q body is not re-execution stable: state changes every superstep even without new messages, so halt-by-default (§6.6) is disabled",
				iter.Var)
		})
	},
}

// shadow flags bindings that reuse the name of a vertex-state field or a
// param. The language resolves the inner binding silently (the typer
// allows it), but a reader — and especially a later assignment, which
// targets the innermost binding — can easily mean the field.
var shadowAnalyzer = &Analyzer{
	Name: "shadow",
	Doc:  "warn on let/aggregation/iter bindings that shadow a field or param",
	Run: func(p *Pass) {
		isField := map[string]bool{}
		for _, f := range p.Info.Fields {
			isField[f.Name] = true
		}
		kind := func(name string) string {
			if isField[name] {
				return "vertex-state field"
			}
			if _, ok := p.Info.Params[name]; ok {
				return "param"
			}
			return ""
		}
		check := func(e ast.Expr) {
			ast.Walk(e, func(x ast.Expr) bool {
				switch n := x.(type) {
				case *ast.Let:
					if k := kind(n.Name); k != "" {
						p.Warnf(n, "rename the let binding",
							"let %q shadows the %s of the same name", n.Name, k)
					}
				case *ast.Agg:
					if k := kind(n.BindVar); k != "" {
						p.Warnf(n, "rename the aggregation variable",
							"aggregation variable %q shadows the %s of the same name", n.BindVar, k)
					}
				}
				return true
			})
		}
		check(p.Program.Init)
		eachBody(p.Program, func(body ast.Expr, iter *ast.Iter) {
			check(body)
			if iter != nil {
				check(iter.Until)
				if k := kind(iter.Var); k != "" {
					p.Warnf(iter, "rename the iteration counter",
						"iteration counter %q shadows the %s of the same name", iter.Var, k)
				}
			}
		})
	},
}
