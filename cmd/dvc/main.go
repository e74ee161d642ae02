// Command dvc is the ΔV compiler driver: it parses, type-checks and
// compiles a ΔV program and prints the result of the requested stage.
//
// Usage:
//
//	dvc [-mode dv|dvstar|memotable] [-emit source|compiled|layout|go]
//	    [-epsilon ε] [-vet=false] (-program name | -file prog.dv)
//	dvc vet [-mode m] [-epsilon ε] [-json] [-severity info|warn|error]
//	    [-analyzers a,b,...] (-program name | -file prog.dv)
//	dvc -list
//
// -mode, -program, -file and -epsilon are the flags dvrun and dvserve name
// a program with; vet's findings apply to the program compiled in -mode.
//
// With -emit compiled (the default) it prints the fully transformed
// program in the paper's pseudo-syntax: receive loops, change checks,
// Δ-message sends and halts, then which vertices run init at superstep 0
// (the others start from one constant row), then whether each phase's
// first body superstep wakes every vertex and, when it does, what blocks
// the proof that it need not, then what each receive and send runs as in
// the VM: a fused kernel (core.Kernel) or its closures. -emit go prints
// generated Go source for the vertex program. -program selects one of the
// embedded benchmark programs (see `dvc -list`).
//
// The vet subcommand runs the static-analysis suite of
// internal/deltav/analysis and prints every finding (syntax and type
// errors included) as position-anchored diagnostics, human-readable by
// default or as a JSON report with -json. -severity info|warn|error sets
// the minimum severity shown (info adds the repairability capability
// matrix); -analyzers selects a comma-separated subset of passes. The
// exit status is 1 when any error-severity finding exists, 0 otherwise
// (info findings and warnings do not fail the run), 2 on usage or I/O
// problems.
//
// Compiling with -emit compiled or -emit go vets the program first:
// error findings abort the compile (bypass with -vet=false), warnings go
// to standard error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/deltav/analysis"
	"repro/internal/deltav/ast"
	"repro/internal/deltav/codegen"
	"repro/internal/deltav/diag"
	"repro/internal/deltav/parser"
	"repro/internal/deltav/vm"
	"repro/internal/programs"
)

// mainFlags are the compile driver's options: the program flags every
// command shares, and dvc's own.
type mainFlags struct {
	*cli.Program
	emit *string
	list *bool
	vet  *bool
}

func registerMainFlags(fs *flag.FlagSet) *mainFlags {
	return &mainFlags{
		Program: cli.RegisterProgram(fs),
		emit:    fs.String("emit", "compiled", "stage to print: source, compiled, layout, go"),
		list:    fs.Bool("list", false, "list embedded programs and exit"),
		vet:     fs.Bool("vet", true, "run the static-analysis suite before compiling"),
	}
}

// vetFlags are the vet subcommand's options.
type vetFlags struct {
	*cli.Program
	jsonOut   *bool
	severity  *string
	analyzers *string
}

func registerVetFlags(fs *flag.FlagSet) *vetFlags {
	return &vetFlags{
		Program:   cli.RegisterProgram(fs),
		jsonOut:   fs.Bool("json", false, "emit the findings as a JSON report"),
		severity:  fs.String("severity", "warn", "minimum severity to show: info, warn, error"),
		analyzers: fs.String("analyzers", "", "comma-separated analyzer subset (default: all)"),
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(vetMain(os.Args[2:]))
	}
	f := registerMainFlags(flag.CommandLine)
	flag.Parse()

	if *f.list {
		fmt.Println(strings.Join(programs.Names(), "\n"))
		return
	}
	if err := run(f, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dvc:", err)
		os.Exit(1)
	}
}

// source resolves the program input -program or -file names. A source
// file is named with -file, as in every other command: a leftover
// argument is refused.
func source(p *cli.Program, args []string) (string, core.Options, error) {
	if len(args) > 0 {
		return "", core.Options{}, fmt.Errorf("unexpected argument %q (name a source file with -file)", args[0])
	}
	opts, err := p.Options()
	if err != nil {
		return "", opts, err
	}
	src, err := p.Source()
	return src, opts, err
}

// vetMain implements `dvc vet` and returns the process exit code: 0 for
// clean or warnings-only, 1 when error findings exist, 2 on usage or I/O
// problems.
func vetMain(args []string) int {
	fs := flag.NewFlagSet("dvc vet", flag.ExitOnError)
	f := registerVetFlags(fs)
	fs.Parse(args)

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "dvc vet:", err)
		return 2
	}
	src, opts, err := source(f.Program, fs.Args())
	if err != nil {
		return fail(err)
	}
	minSev, err := diag.ParseSeverity(*f.severity)
	if err != nil {
		return fail(err)
	}
	var passes []*analysis.Analyzer
	if *f.analyzers != "" {
		passes, err = analysis.ByName(strings.Split(*f.analyzers, ","))
		if err != nil {
			return fail(err)
		}
	}

	diags, err := analysis.VetSource(src, analysis.Config{Mode: opts.Mode, Epsilon: opts.Epsilon}, passes)
	if err != nil {
		// Syntax and type errors are diagnostics too: render them through
		// the same pipeline instead of aborting with a bare message.
		var front diag.List
		if !errors.As(err, &front) {
			return fail(err)
		}
		diags = front
	}
	shown := diags.Filter(minSev)
	if *f.jsonOut {
		fmt.Println(shown.JSON())
	} else {
		for _, d := range shown {
			fmt.Println(d.String())
		}
	}
	if diags.HasErrors() {
		return 1
	}
	return 0
}

func run(f *mainFlags, args []string) error {
	src, opts, err := source(f.Program, args)
	if err != nil {
		return err
	}
	if *f.emit == "source" {
		prog, err := parser.Parse(src)
		if err != nil {
			return err
		}
		fmt.Print(ast.Print(prog))
		return nil
	}
	if *f.vet && (*f.emit == "compiled" || *f.emit == "go") {
		diags, err := analysis.VetSource(src, analysis.Config{Mode: opts.Mode, Epsilon: opts.Epsilon}, nil)
		if err != nil {
			return err
		}
		if diags.HasErrors() {
			return fmt.Errorf("vet rejected the program (bypass with -vet=false):\n%s", diags.Filter(diag.Error).Error())
		}
		// Info findings (the repairability matrix) are vet-only output;
		// compiling prints warnings and up.
		for _, d := range diags.Filter(diag.Warning) {
			fmt.Fprintln(os.Stderr, "dvc vet:", d.String())
		}
	}
	compiled, err := core.Compile(src, opts)
	if err != nil {
		return err
	}
	switch *f.emit {
	case "compiled":
		fmt.Print(compiled.String())
		fmt.Printf("start: %s\n", compiled.StartString())
		for i := range compiled.Phases {
			fmt.Printf("phase %d start: %s\n", i, compiled.WakeString(i))
		}
		for _, line := range compiled.KernelLines() {
			fmt.Println(line)
		}
	case "layout":
		fmt.Printf("vertex state: %d bytes\n", compiled.Layout.ByteSize())
		for i, fld := range compiled.Layout.Fields {
			fmt.Printf("  [%d] %-16s %-5s %s\n", i, fld.Name, fld.Type, fld.Kind)
		}
		fmt.Printf("message: %d bytes, %d slot(s)\n", vm.MessageBytes(compiled), compiled.MaxSlotsPerGroup)
	case "go":
		gosrc, err := codegen.Generate(compiled, "main")
		if err != nil {
			return err
		}
		fmt.Print(gosrc)
	default:
		return fmt.Errorf("unknown -emit %q (want source, compiled, layout, go)", *f.emit)
	}
	return nil
}
