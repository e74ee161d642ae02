package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEquivalenceGateNamesRealTests keeps the CI "Checkpoint & delta
// equivalence" step honest: every alternative of its -run regex must
// match at least one Test or Fuzz function in the packages that step
// lists, so a renamed or deleted test cannot silently drop out of the
// gate.
func TestEquivalenceGateNamesRealTests(t *testing.T) {
	run := stepRun(t, ".github/workflows/ci.yml", "Checkpoint & delta equivalence")
	fields := strings.Fields(run)
	var pattern string
	var pkgs []string
	for i, f := range fields {
		switch {
		case f == "-run" && i+1 < len(fields):
			pattern = strings.Trim(fields[i+1], `'"`)
		case strings.HasPrefix(f, "./"):
			pkgs = append(pkgs, f)
		}
	}
	if pattern == "" || len(pkgs) == 0 {
		t.Fatalf("step command %q: want a -run regex and package paths", run)
	}
	if _, err := regexp.Compile(pattern); err != nil {
		t.Fatalf("-run %q: %v", pattern, err)
	}
	var names []string
	for _, p := range pkgs {
		names = append(names, testFuncs(t, p, "Test", "Fuzz")...)
	}
	for _, alt := range topLevelAlternatives(pattern) {
		re := regexp.MustCompile(alt)
		found := false
		for _, n := range names {
			if re.MatchString(n) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("-run alternative %q matches no Test/Fuzz function in %v", alt, pkgs)
		}
	}
}

// stepRun returns the run command of the first workflow step whose name
// starts with name, its continuation lines joined by spaces.
func stepRun(t *testing.T, path, name string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(strings.TrimSpace(l), "- name: "+name) {
			continue
		}
		step := len(l) - len(strings.TrimLeft(l, " "))
		for j := i + 1; j < len(lines); j++ {
			l := lines[j]
			indent := len(l) - len(strings.TrimLeft(l, " "))
			if strings.TrimSpace(l) != "" && indent <= step {
				break
			}
			cmd, ok := strings.CutPrefix(strings.TrimSpace(l), "run:")
			if !ok {
				continue
			}
			parts := []string{cmd}
			for _, c := range lines[j+1:] {
				if len(c)-len(strings.TrimLeft(c, " ")) <= indent {
					break
				}
				parts = append(parts, c)
			}
			return strings.Join(parts, " ")
		}
		t.Fatalf("%s: step %q has no run command", path, name)
	}
	t.Fatalf("%s: no step named %q", path, name)
	return ""
}

// TestCITargetsExist keeps the workflow's fuzz and benchmark commands
// honest: every -fuzz pattern, and every alternative of every -bench
// pattern, must match a Fuzz or Benchmark function in the package on the
// same command line. go test passes a -fuzz or -bench pattern that matches
// nothing, so a renamed target would otherwise be fuzzed or timed by no one.
func TestCITargetsExist(t *testing.T) {
	b, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]int{}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if !slices.Contains(fields, "go") || !slices.Contains(fields, "test") {
			continue
		}
		var pkgs []string
		targets := map[string]string{} // kind -> pattern
		for i, f := range fields {
			switch {
			case (f == "-fuzz" || f == "-bench") && i+1 < len(fields):
				kind := map[string]string{"-fuzz": "Fuzz", "-bench": "Benchmark"}[f]
				targets[kind] = strings.Trim(fields[i+1], `'"`)
			case strings.HasPrefix(f, "./"):
				pkgs = append(pkgs, f)
			}
		}
		for kind, pattern := range targets {
			if len(pkgs) != 1 {
				t.Errorf("%q: want exactly one package beside -%s", strings.TrimSpace(line), strings.ToLower(kind))
				continue
			}
			names := testFuncs(t, pkgs[0], kind)
			for _, alt := range topLevelAlternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s pattern %q: %v", kind, pattern, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s pattern alternative %q matches no %s function in %s", kind, alt, kind, pkgs[0])
				}
				checked[kind]++
			}
		}
	}
	// A workflow this test no longer parses must not pass as "nothing to check".
	for _, kind := range []string{"Fuzz", "Benchmark"} {
		if checked[kind] == 0 {
			t.Errorf("found no -%s target in the workflow", strings.ToLower(kind))
		}
	}
}

// testFuncs lists the top-level functions declared in dir's test files
// whose names start with one of prefixes.
func testFuncs(t *testing.T, dir string, prefixes ...string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv == nil && slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(fd.Name.Name, p) }) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}

// topLevelAlternatives splits a regex at the '|' outside any group or
// class.
func topLevelAlternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}
