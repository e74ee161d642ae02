package analysis

import (
	"fmt"

	"repro/internal/core"
)

// repairability renders the program's static delta-capability matrix
// (core.RepairProfile) as informational findings: one per delta class,
// anchored to the construct that decides it — the clamping assignment, the
// aggregation site, the until{} clause, init{}'s degree read. This is the
// same profile vm.RunDelta validates deltas against and dvserve admits
// batches with, surfaced at vet time so an author learns before deployment
// which mutation classes their program repairs in place and which force a
// from-scratch rerun. Hidden at the default -severity; pass
// `-severity info` to see the matrix.
var repairabilityAnalyzer = &Analyzer{
	Name: "repairability",
	Doc:  "report the per-delta-class repair capability matrix (informational)",
	Run: func(p *Pass) {
		prog, err := core.CompileAST(p.Program, core.Options{Mode: p.Config.Mode})
		if err != nil {
			// Compilation failures are the compiler's to report; there is
			// no profile to render.
			return
		}
		for _, v := range prog.Repairability().Classes {
			var msg string
			switch v.Cap {
			case core.Repairable:
				msg = fmt.Sprintf("%s: repairable (%s)", v.Class, v.Strategy)
			default:
				msg = fmt.Sprintf("%s: %s — %s", v.Class, capabilityPhrase(v.Cap), v.Reason)
			}
			p.InformfAt(v.Pos, v.End, "%s", msg)
		}
	},
}

func capabilityPhrase(c core.Capability) string {
	if c == core.FallbackRequired {
		return "fallback required"
	}
	return "unsupported"
}
