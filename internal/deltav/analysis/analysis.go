// Package analysis is the ΔV static-analysis suite behind `dvc vet`: a
// small go/analysis-style framework plus the paper-grounded analyzers
// that check whether a program will incrementalize meaningfully.
//
// Each Analyzer inspects a parsed and type-checked program through a Pass
// and reports findings as diag.Diagnostic values. The driver, Vet, runs a
// set of analyzers and returns the merged, position-sorted diag.List.
// Analyzers are pure: they never mutate the program, so the driver can
// hand every analyzer the same tree.
//
// Severity policy: whether a program compiles is the compiler's verdict
// alone, so no analyzer reports an Error (the errors a vet run carries
// are the front end's and the ε the compiler refuses). A Warning marks a
// program that compiles but likely does not do what its author intended
// (degenerate incrementalization, disabled halt-by-default, dead state,
// shadowing); an Info finding describes a healthy program (the
// repairability capability matrix) and is hidden at the default severity.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/deltav/diag"
	"repro/internal/deltav/parser"
	"repro/internal/deltav/token"
	"repro/internal/deltav/typer"
)

// Analyzer is one static-analysis pass.
type Analyzer struct {
	// Name is the stable identifier: the -analyzers flag value and the
	// diagnostic Code.
	Name string
	// Doc is a one-line description shown by `dvc vet -help`.
	Doc string
	// Run inspects the pass's program and reports findings on it.
	Run func(*Pass)
}

// Config parameterizes a vet run with the compilation options the program
// is headed for: some findings depend on the target mode (repairability)
// or on option values (the ε-slop check).
type Config struct {
	// Mode is the compilation mode the program will be compiled with.
	Mode core.Mode
	// Epsilon is the §9 allowable-slop value the program will run with.
	Epsilon float64
}

// Pass carries one analyzer's view of the program under analysis.
type Pass struct {
	Analyzer *Analyzer
	Program  *ast.Program
	Info     *typer.Info
	Config   Config

	diags diag.List
}

// Report appends a fully-formed diagnostic. The Code is forced to the
// analyzer's name so findings are always attributable.
func (p *Pass) Report(d diag.Diagnostic) {
	d.Code = p.Analyzer.Name
	p.diags.Add(d)
}

// Warnf reports a warning-severity finding anchored to a node.
func (p *Pass) Warnf(n ast.Node, suggestion, format string, args ...any) {
	p.reportAt(n.Pos(), n.End(), diag.Warning, suggestion, format, args...)
}

// WarnfAt reports a warning at an explicit position (for non-Node program
// elements such as params).
func (p *Pass) WarnfAt(pos token.Pos, suggestion, format string, args ...any) {
	p.reportAt(pos, token.Pos{}, diag.Warning, suggestion, format, args...)
}

// InformfAt reports an info-severity finding at an explicit range (for
// program elements that only exist after compilation, such as aggregation
// sites; the range may be invalid for program-wide facts).
func (p *Pass) InformfAt(pos, end token.Pos, format string, args ...any) {
	p.reportAt(pos, end, diag.Info, "", format, args...)
}

func (p *Pass) reportAt(pos, end token.Pos, sev diag.Severity, suggestion, format string, args ...any) {
	p.Report(diag.Diagnostic{
		Pos: pos, End: end, Severity: sev,
		Message: fmt.Sprintf(format, args...), Suggestion: suggestion,
	})
}

// registry holds the built-in analyzers in a fixed order.
var registry = []*Analyzer{
	meaningfulnessAnalyzer,
	convergenceAnalyzer,
	deadfieldAnalyzer,
	initonlyAnalyzer,
	shadowAnalyzer,
	repairabilityAnalyzer,
}

// All returns every registered analyzer, sorted by name.
func All() []*Analyzer {
	out := append([]*Analyzer(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName resolves analyzer names (e.g. from a -analyzers flag) to
// analyzers, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range registry {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(registry))
			for _, r := range All() {
				known = append(known, r.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (known: %v)", n, known)
		}
		out = append(out, a)
	}
	return out, nil
}

// Vet runs the given analyzers (nil means all) over a type-checked
// program and returns the merged findings, position-sorted.
func Vet(prog *ast.Program, info *typer.Info, cfg Config, analyzers []*Analyzer) diag.List {
	if analyzers == nil {
		analyzers = All()
	}
	var out diag.List
	if err := core.CheckEpsilon(cfg.Epsilon); err != nil {
		// Not an analyzer's finding: the compiler refuses the option
		// whichever analyzers run.
		out.Add(diag.Diagnostic{Severity: diag.Error, Code: "epsilon", Message: err.Error()})
	}
	for _, a := range analyzers {
		p := &Pass{Analyzer: a, Program: prog, Info: info, Config: cfg}
		a.Run(p)
		out = append(out, p.diags...)
	}
	out.Sort()
	return out
}

// VetSource parses, type-checks and vets ΔV source in one call. Parse and
// type errors come back as the error (a diag.List); analyzer findings as
// the returned list.
func VetSource(src string, cfg Config, analyzers []*Analyzer) (diag.List, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := typer.Check(prog)
	if err != nil {
		return nil, err
	}
	return Vet(prog, info, cfg, analyzers), nil
}
