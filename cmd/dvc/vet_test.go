package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/programs"
)

// TestVetCorpusGoldens pins `dvc vet` output for every embedded program
// in the default mode, the one dvrun and dvserve run. Every program must
// be free of error findings; warnings are pinned in the goldens (only
// prod carries one).
func TestVetCorpusGoldens(t *testing.T) {
	for _, name := range programs.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			code, out, errOut := dvc("vet", "-program", name)
			if code != 0 {
				t.Fatalf("vet failed (exit %d):\n%s%s", code, out, errOut)
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

// TestVetJSON pins the -json report: empty for a clean program, and one
// structured error finding for a value the compiler refuses.
func TestVetJSON(t *testing.T) {
	t.Run("clean-program-empty-report", func(t *testing.T) {
		out := mustDVC(t, "vet", "-program", "pagerank", "-json")
		var rep jsonReport
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out)
		}
		if len(rep.Diagnostics) != 0 {
			t.Fatalf("pagerank diagnostics = %+v, want none", rep.Diagnostics)
		}
	})
	t.Run("epsilon-error-structured", func(t *testing.T) {
		code, out, _ := dvc("vet", "-program", "pagerank", "-epsilon", "-1", "-json")
		if code != 1 {
			t.Fatalf("exit = %d, want 1\n%s", code, out)
		}
		var rep jsonReport
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out)
		}
		if len(rep.Diagnostics) != 1 {
			t.Fatalf("diagnostics = %+v, want 1", rep.Diagnostics)
		}
		d := rep.Diagnostics[0]
		if d.Severity != "error" || d.Code != "epsilon" || !strings.HasPrefix(d.Message, "core: ε = -1") {
			t.Fatalf("diagnostic = %+v", d)
		}
	})
}

// TestVetMultipleTypeErrors pins the acceptance criterion: a program with
// two type errors reports both findings, each with a line:col position.
func TestVetMultipleTypeErrors(t *testing.T) {
	f := filepath.Join(t.TempDir(), "bad.dv")
	src := "init { local x : int = 1.5;\nlocal y : bool = not 3 };\nstep { x = 1 }\n"
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := dvc("vet", "-file", f)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
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
	code, out, _ = dvc("vet", "-json", "-file", f)
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if code != 1 || len(rep.Diagnostics) != 2 || rep.Diagnostics[0].Pos.Line != 1 || rep.Diagnostics[1].Pos.Line != 2 {
		t.Fatalf("exit %d, JSON diagnostics = %+v, want 1 and two positioned errors", code, rep.Diagnostics)
	}
}

func TestVetSeverityFilter(t *testing.T) {
	// prod has one warning; -severity error hides it but keeps exit 0.
	if out := mustDVC(t, "vet", "-program", "prod", "-severity", "error"); strings.TrimSpace(out) != "" {
		t.Fatalf("severity-filtered vet:\n%s", out)
	}
	if out := mustDVC(t, "vet", "-program", "prod"); !strings.Contains(out, "warn[initonly]") {
		t.Fatalf("unfiltered vet:\n%s", out)
	}
}

func TestVetAnalyzersFlag(t *testing.T) {
	// Restricting to an unrelated analyzer suppresses prod's warning.
	if out := mustDVC(t, "vet", "-program", "prod", "-analyzers", "shadow"); strings.TrimSpace(out) != "" {
		t.Fatalf("restricted vet:\n%s", out)
	}
	code, out, errOut := dvc("vet", "-program", "prod", "-analyzers", "bogus")
	if code != 2 || !strings.Contains(errOut, "unknown analyzer") {
		t.Fatalf("bogus analyzer: exit %d:\n%s%s", code, out, errOut)
	}
}

// TestVetRefusesEpsilon: vet fails on the ε the compiler refuses, with the
// compiler's reason, whichever analyzers run.
func TestVetRefusesEpsilon(t *testing.T) {
	for _, args := range [][]string{
		{"vet", "-program", "pagerank", "-epsilon", "-1"},
		{"vet", "-program", "pagerank", "-epsilon", "NaN", "-analyzers", "shadow"},
	} {
		code, out, _ := dvc(args...)
		if code != 1 || !strings.Contains(out, "error[epsilon]: core: ε = ") {
			t.Errorf("%v: exit %d:\n%s", args, code, out)
		}
	}
}

// TestCompileRefusesEpsilon: the compile driver's refusal is the
// compiler's own error, one line, and nothing else.
func TestCompileRefusesEpsilon(t *testing.T) {
	code, out, errOut := dvc("-program", "pagerank", "-epsilon", "-1")
	if code != 1 || out != "" || !strings.HasPrefix(errOut, "dvc: core: ε = -1") || strings.Count(errOut, "\n") != 1 {
		t.Fatalf("exit %d, want 1 and the compiler's one-line refusal:\n%s%s", code, out, errOut)
	}
}

func TestListSorted(t *testing.T) {
	names := strings.Fields(mustDVC(t, "-list"))
	if !sort.StringsAreSorted(names) {
		t.Fatalf("-list not sorted: %v", names)
	}
	if len(names) != len(programs.Names()) {
		t.Fatalf("-list = %v, want %v", names, programs.Names())
	}
}

// TestDocCommentListsAllFlags guards against doc drift both ways: every
// flag of the compile driver and of the vet subcommand is mentioned as
// "-name" in this file's package doc comment, every -name in its Usage
// block is a flag of one of them, and every dvc command README.md shows
// parses with its flag set.
func TestDocCommentListsAllFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("package clause not found")
	}
	flagSet := func(vet bool) *flag.FlagSet {
		if vet {
			fs := flag.NewFlagSet("dvc vet", flag.ContinueOnError)
			registerVetFlags(fs)
			return fs
		}
		fs := flag.NewFlagSet("dvc", flag.ContinueOnError)
		registerMainFlags(fs)
		return fs
	}
	mainFS, vetFS := flagSet(false), flagSet(true)
	for _, fs := range []*flag.FlagSet{mainFS, vetFS} {
		fs.VisitAll(func(fl *flag.Flag) {
			if !strings.Contains(doc, "-"+fl.Name) {
				t.Errorf("doc comment does not mention -%s", fl.Name)
			}
		})
	}
	if !strings.Contains(doc, "dvc vet") {
		t.Error("doc comment does not document the vet subcommand")
	}
	_, usage, _ := strings.Cut(doc, "// Usage:\n//\n")
	usage, _, _ = strings.Cut(usage, "\n//\n")
	names := regexp.MustCompile(`[\s\[(|]-([a-z][a-z-]*)`).FindAllStringSubmatch(usage, -1)
	if len(names) == 0 {
		t.Fatal("main.go has no Usage block naming flags")
	}
	for _, m := range names {
		if mainFS.Lookup(m[1]) == nil && vetFS.Lookup(m[1]) == nil {
			t.Errorf("the Usage block names -%s, which is not a flag", m[1])
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := regexp.MustCompile(`(?m)^\$ go run \./cmd/dvc (.*)`).FindAllStringSubmatch(string(readme), -1)
	if len(cmds) == 0 {
		t.Fatal("README.md shows no dvc command")
	}
	for _, m := range cmds {
		// The shell's part (a comment, a redirection, a pipe) cut.
		args := strings.Fields(m[1][:strings.IndexAny(m[1]+"#", "#&|<>;")])
		vet := len(args) > 0 && args[0] == "vet"
		if vet {
			args = args[1:]
		}
		fs := flagSet(vet)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
			t.Errorf("README.md: dvc %s: %v, arguments left %q", m[1], err, fs.Args())
		}
	}
}
