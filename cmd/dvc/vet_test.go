package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/programs"
)

// intendedMode maps each embedded program to the compile mode its
// min/max usage requires: idempotent aggregations are rejected under
// -mode dv by the invertibility analyzer, so those programs target the
// §4.2.1 memo-table scheme. Mirrors the CI vet gate.
func intendedMode(name string) string {
	switch name {
	case "bfs", "cc", "maxval", "sssp", "twophase", "wcc":
		return "memotable"
	}
	return "dv"
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

// TestVetCorpusGoldens pins `dvc vet` output for every embedded program
// under its intended mode. Every program must be free of error findings;
// warnings are pinned in the goldens (only prod carries one).
func TestVetCorpusGoldens(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")
	for _, name := range programs.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			out, err := runTool(t, bin, "vet", "-program", name, "-mode", intendedMode(name))
			if err != nil {
				t.Fatalf("vet failed (exit %d):\n%s", exitCode(err), out)
			}
			golden := filepath.Join("testdata", "vet", name+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Fatalf("vet output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, out, want)
			}
		})
	}
}

type jsonReport struct {
	Diagnostics []struct {
		Pos        struct{ Line, Col int } `json:"pos"`
		Severity   string                  `json:"severity"`
		Code       string                  `json:"code"`
		Message    string                  `json:"message"`
		Suggestion string                  `json:"suggestion"`
	} `json:"diagnostics"`
}

func TestVetJSON(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")

	t.Run("clean-program-empty-report", func(t *testing.T) {
		out, err := runTool(t, bin, "vet", "-program", "pagerank", "-json")
		if err != nil {
			t.Fatal(err, out)
		}
		var rep jsonReport
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out)
		}
		if len(rep.Diagnostics) != 0 {
			t.Fatalf("pagerank diagnostics = %+v, want none", rep.Diagnostics)
		}
	})
	t.Run("invertibility-error-structured", func(t *testing.T) {
		out, err := runTool(t, bin, "vet", "-program", "maxval", "-mode", "dv", "-json")
		if ec := exitCode(err); ec != 1 {
			t.Fatalf("exit = %d, want 1\n%s", ec, out)
		}
		var rep jsonReport
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out)
		}
		if len(rep.Diagnostics) != 1 {
			t.Fatalf("diagnostics = %+v, want 1", rep.Diagnostics)
		}
		d := rep.Diagnostics[0]
		if d.Severity != "error" || d.Code != "invertibility" ||
			d.Pos.Line == 0 || d.Pos.Col == 0 ||
			!strings.Contains(d.Suggestion, "-mode memotable") {
			t.Fatalf("diagnostic = %+v", d)
		}
	})
}

func TestVetRejectsBeforeEmit(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")
	out, err := runTool(t, bin, "-program", "maxval", "-mode", "dv", "-emit", "compiled")
	if err == nil {
		t.Fatalf("compile of maxval under dv succeeded, want vet rejection:\n%s", out)
	}
	for _, want := range []string{"invertibility", "-mode memotable", "-vet=false"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rejection missing %q:\n%s", want, out)
		}
	}
	out, err = runTool(t, bin, "-program", "maxval", "-mode", "dv", "-emit", "compiled", "-vet=false")
	if err != nil {
		t.Fatalf("-vet=false bypass failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "mode: dV") {
		t.Fatalf("bypassed compile output unexpected:\n%s", out)
	}
	// -emit source and -emit layout never vet.
	if out, err := runTool(t, bin, "-program", "maxval", "-mode", "dv", "-emit", "source"); err != nil {
		t.Fatalf("-emit source should not vet: %v\n%s", err, out)
	}
}

// TestVetMultipleTypeErrors pins the acceptance criterion: a program with
// two type errors reports both findings, each with a line:col position.
func TestVetMultipleTypeErrors(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")
	f := filepath.Join(t.TempDir(), "bad.dv")
	src := "init { local x : int = 1.5;\nlocal y : bool = not 3 };\nstep { x = 1 }\n"
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, bin, "vet", "-file", f)
	if ec := exitCode(err); ec != 1 {
		t.Fatalf("exit = %d, want 1\n%s", ec, out)
	}
	for _, want := range []string{
		"1:8: error[typecheck]: local x : int initialized with float",
		"2:18: error[typecheck]: not applied to int",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// The same two findings, structured.
	out, _ = runTool(t, bin, "vet", "-json", "-file", f)
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(rep.Diagnostics) != 2 || rep.Diagnostics[0].Pos.Line != 1 || rep.Diagnostics[1].Pos.Line != 2 {
		t.Fatalf("JSON diagnostics = %+v, want two positioned errors", rep.Diagnostics)
	}
}

func TestVetSeverityFilter(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")
	// prod has one warning; -severity error hides it but keeps exit 0.
	out, err := runTool(t, bin, "vet", "-program", "prod", "-severity", "error")
	if err != nil || strings.TrimSpace(out) != "" {
		t.Fatalf("severity-filtered vet = %v:\n%s", err, out)
	}
	out, err = runTool(t, bin, "vet", "-program", "prod")
	if err != nil || !strings.Contains(out, "warn[initonly]") {
		t.Fatalf("unfiltered vet = %v:\n%s", err, out)
	}
}

func TestVetAnalyzersFlag(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")
	// Restricting to an unrelated analyzer suppresses the maxval error.
	out, err := runTool(t, bin, "vet", "-program", "maxval", "-mode", "dv", "-analyzers", "shadow")
	if err != nil || strings.TrimSpace(out) != "" {
		t.Fatalf("restricted vet = %v:\n%s", err, out)
	}
	out, err = runTool(t, bin, "vet", "-program", "maxval", "-analyzers", "bogus")
	if ec := exitCode(err); ec != 2 || !strings.Contains(out, "unknown analyzer") {
		t.Fatalf("bogus analyzer: exit %d:\n%s", ec, out)
	}
}

// TestVetRefusesEpsilon: vet fails on the ε the compiler refuses, with the
// compiler's reason, whichever analyzers run.
func TestVetRefusesEpsilon(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")
	for _, args := range [][]string{
		{"vet", "-program", "pagerank", "-epsilon", "-1"},
		{"vet", "-program", "pagerank", "-epsilon", "NaN", "-analyzers", "shadow"},
	} {
		out, err := runTool(t, bin, args...)
		if ec := exitCode(err); ec != 1 || !strings.Contains(out, "error[epsilon]: core: ε = ") {
			t.Errorf("%v: exit %d:\n%s", args, ec, out)
		}
	}
}

// TestCompileRejectionListsOnlyErrors: when vet stops a compile, the
// rejection lists exactly the error diagnostics, not the info-level
// repairability findings vet also makes.
func TestCompileRejectionListsOnlyErrors(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")
	out, err := runTool(t, bin, "-program", "pagerank", "-epsilon", "-1")
	if ec := exitCode(err); ec != 1 {
		t.Fatalf("exit %d, want 1:\n%s", ec, out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "vet rejected the program") ||
		!strings.HasPrefix(lines[1], "error[epsilon]: core: ε = -1") {
		t.Fatalf("rejection is not the header and the one error:\n%s", out)
	}
}

func TestListSorted(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")
	out, err := runTool(t, bin, "-list")
	if err != nil {
		t.Fatal(err, out)
	}
	names := strings.Fields(strings.TrimSpace(out))
	if !sort.StringsAreSorted(names) {
		t.Fatalf("-list not sorted: %v", names)
	}
	if len(names) != len(programs.Names()) {
		t.Fatalf("-list = %v, want %v", names, programs.Names())
	}
}

// TestDocCommentListsAllFlags keeps the package doc comment in sync with
// the actual flags of both the compile driver and the vet subcommand.
func TestDocCommentListsAllFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("package clause not found")
	}
	check := func(fs *flag.FlagSet) {
		fs.VisitAll(func(fl *flag.Flag) {
			if !strings.Contains(doc, "-"+fl.Name) {
				t.Errorf("doc comment does not mention -%s", fl.Name)
			}
		})
	}
	mainFS := flag.NewFlagSet("dvc", flag.ContinueOnError)
	registerMainFlags(mainFS)
	check(mainFS)
	vetFS := flag.NewFlagSet("dvc vet", flag.ContinueOnError)
	registerVetFlags(vetFS)
	check(vetFS)
	if !strings.Contains(doc, "dvc vet") {
		t.Error("doc comment does not document the vet subcommand")
	}
}
