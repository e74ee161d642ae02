package vm

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/graph"
)

// Random (but type-correct) ΔV programs and the small random graphs they
// run on: FuzzBitIdentity's famRandom family and rnd graphs. Layer 3 holds
// every mode of such a program to ΔV★, the strongest end-to-end check of
// the Eq. 11 Δ-message algebra: any unsound delta, tag, suppression or
// memoization shows up as a state divergence.

// randProgram builds a random program over nFields float fields with
// 1..2 aggregation sites. Expressions are damped to avoid float blow-up.
// Fields feeding min (max) sites get monotone non-increasing
// (non-decreasing) updates — the contract idempotent Δ-messages require.
func randProgram(rng *rand.Rand) string {
	nFields := 2 + rng.Intn(2)
	nSites := 1 + rng.Intn(2)
	iters := 3 + rng.Intn(5)

	// role[f]: "" free, "min" monotone down, "max" monotone up.
	role := make([]string, nFields)

	type site struct {
		op    string
		field int
		ew    bool
	}
	sites := make([]site, nSites)
	ops := []string{"+", "min", "max"}
	for s := range sites {
		op := ops[rng.Intn(len(ops))]
		// Pick a field compatible with the op's monotonicity need.
		field := -1
		for attempts := 0; attempts < 2*nFields; attempts++ {
			f := rng.Intn(nFields)
			if op == "+" || role[f] == "" || role[f] == op {
				field = f
				break
			}
		}
		if field < 0 {
			op, field = "+", rng.Intn(nFields)
		}
		if op != "+" {
			role[field] = op
		}
		sites[s] = site{op: op, field: field, ew: op != "+" && rng.Intn(3) == 0}
	}

	var b strings.Builder
	b.WriteString("init {\n")
	for f := 0; f < nFields; f++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "  local f%d : float = 1.0 + 1.0 * id / graphSize", f)
		case 1:
			fmt.Fprintf(&b, "  local f%d : float = if id == 0 then 2.0 else 0.5", f)
		default:
			fmt.Fprintf(&b, "  local f%d : float = 0.25 * (1.0 + 1.0 * id)", f)
		}
		if f != nFields-1 {
			b.WriteString(";\n")
		} else {
			b.WriteString("\n")
		}
	}
	b.WriteString("};\niter k {\n")

	for s, st := range sites {
		aggrand := fmt.Sprintf("u.f%d", st.field)
		if st.ew {
			aggrand += " + ew"
		}
		fmt.Fprintf(&b, "  let a%d : float = %s [ %s | u <- #in ] in\n", s, st.op, aggrand)
	}
	// Field updates honouring each field's monotonicity role.
	for f := 0; f < nFields; f++ {
		var upd string
		switch role[f] {
		case "min":
			upd = fmt.Sprintf("min f%d (%s)", f, randUpdate(rng, f, nFields, nSites))
		case "max":
			upd = fmt.Sprintf("max f%d (%s)", f, randUpdate(rng, f, nFields, nSites))
		default:
			upd = randUpdate(rng, f, nFields, nSites)
		}
		fmt.Fprintf(&b, "  f%d = %s", f, upd)
		if f != nFields-1 {
			b.WriteString(";\n")
		} else {
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "} until { k >= %d }\n", iters)
	return b.String()
}

func randUpdate(rng *rand.Rand, f, nFields, nSites int) string {
	atom := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("a%d", rng.Intn(nSites))
		case 1:
			return fmt.Sprintf("f%d", rng.Intn(nFields))
		case 2:
			return "0.75"
		default:
			return "1.0 * k"
		}
	}
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("0.3 * (%s) + 0.2 * (%s)", atom(), atom())
	case 1:
		return fmt.Sprintf("min (%s) (%s)", atom(), atom())
	case 2:
		return fmt.Sprintf("max (%s) (0.1 * (%s))", atom(), atom())
	default:
		return fmt.Sprintf("if %s > 1.0 then 0.4 * (%s) else 0.25 + 0.5 * (%s)", atom(), atom(), atom())
	}
}

// randGraph is a random weighted multigraph of 4–43 vertices.
func randGraph(rng *rand.Rand, directed bool) *graph.Graph {
	n := 4 + rng.Intn(40)
	m := 1 + rng.Intn(5*n)
	b := graph.NewBuilder(n, directed)
	for i := 0; i < m; i++ {
		b.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 0.5+2*rng.Float64())
	}
	return b.Finalize()
}
