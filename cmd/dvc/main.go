// Command dvc is the ΔV compiler driver: it parses, type-checks and
// compiles a ΔV program and prints the result of the requested stage.
//
// Usage:
//
//	dvc [-mode dv|dvstar|memotable] [-emit source|compiled|layout|go]
//	    [-epsilon ε] (-program name | -file prog.dv)
//	dvc vet [-mode m] [-epsilon ε] [-json] [-severity info|warn|error]
//	    [-analyzers a,b,...] (-program name | -file prog.dv)
//	dvc -list
//
// -mode, -program, -file and -epsilon name a program as in dvrun and
// dvserve, and it compiles as there; vet's findings apply to that program.
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
// exit status is 1 when any error-severity finding exists (a syntax or
// type error, or an ε the compiler refuses), 0 otherwise (info findings
// and warnings do not fail the run), 2 on usage or I/O problems.
//
// Compiling with -emit compiled or -emit go also prints vet's warnings
// to standard error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
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
}

func registerMainFlags(fs *flag.FlagSet) *mainFlags {
	return &mainFlags{
		Program: cli.RegisterProgram(fs),
		emit:    fs.String("emit", "compiled", "stage to print: source, compiled, layout, go"),
		list:    fs.Bool("list", false, "list embedded programs and exit"),
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one dvc invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "vet" {
		return vetMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("dvc", flag.ContinueOnError)
	f := registerMainFlags(fs)
	if !parse(fs, args, stderr) {
		return 2
	}
	if *f.list {
		fmt.Fprintln(stdout, strings.Join(programs.Names(), "\n"))
		return 0
	}
	if err := compile(f, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "dvc:", err)
		return 1
	}
	return 0
}

// parse parses args into fs, reporting to stderr, and refuses a leftover
// argument: a source file is named with -file, as in every other command.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) bool {
	fs.SetOutput(stderr)
	if fs.Parse(args) != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: unexpected argument %q (name a source file with -file)\n", fs.Name(), fs.Arg(0))
	}
	return fs.NArg() == 0
}

// vetMain implements `dvc vet` and returns the process exit code: 0 for
// clean or warnings-only, 1 when error findings exist, 2 on usage or I/O
// problems.
func vetMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvc vet", flag.ContinueOnError)
	f := registerVetFlags(fs)
	if !parse(fs, args, stderr) {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "dvc vet:", err)
		return 2
	}
	opts, err := f.Options()
	if err != nil {
		return fail(err)
	}
	src, err := f.Source()
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
		fmt.Fprintln(stdout, shown.JSON())
	} else {
		for _, d := range shown {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if diags.HasErrors() {
		return 1
	}
	return 0
}

// compile prints the stage -emit names of the program f names, compiled
// as dvrun and dvserve compile it.
func compile(f *mainFlags, stdout, stderr io.Writer) error {
	if *f.emit == "source" {
		if _, err := f.Options(); err != nil {
			return err
		}
		src, err := f.Source()
		if err != nil {
			return err
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, ast.Print(prog))
		return nil
	}
	compiled, src, err := f.Compile()
	if err != nil {
		return err
	}
	if *f.emit == "compiled" || *f.emit == "go" {
		// Compiled, the program has no vet error left; info findings (the
		// repairability matrix) are vet-only output.
		diags, err := analysis.VetSource(src, analysis.Config{Mode: compiled.Mode, Epsilon: f.Epsilon}, nil)
		if err != nil {
			return err
		}
		for _, d := range diags.Filter(diag.Warning) {
			fmt.Fprintln(stderr, "dvc vet:", d.String())
		}
	}
	switch *f.emit {
	case "compiled":
		fmt.Fprint(stdout, compiled.String())
		fmt.Fprintf(stdout, "start: %s\n", compiled.StartString())
		for i := range compiled.Phases {
			fmt.Fprintf(stdout, "phase %d start: %s\n", i, compiled.WakeString(i))
		}
		for _, line := range compiled.KernelLines() {
			fmt.Fprintln(stdout, line)
		}
	case "layout":
		fmt.Fprintf(stdout, "vertex state: %d bytes\n", compiled.Layout.ByteSize())
		for i, fld := range compiled.Layout.Fields {
			fmt.Fprintf(stdout, "  [%d] %-16s %-5s %s\n", i, fld.Name, fld.Type, fld.Kind)
		}
		fmt.Fprintf(stdout, "message: %d bytes, %d slot(s)\n", vm.MessageBytes(compiled), compiled.MaxSlotsPerGroup)
	case "go":
		gosrc, err := codegen.Generate(compiled, "main")
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, gosrc)
	default:
		return fmt.Errorf("unknown -emit %q (want source, compiled, layout, go)", *f.emit)
	}
	return nil
}
