package codegen

import (
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/programs"
)

func generateT(t *testing.T, name string, mode core.Mode) string {
	t.Helper()
	return generateOpts(t, name, core.Options{Mode: mode}, "dvgen")
}

func generateOpts(t *testing.T, name string, opts core.Options, pkg string) string {
	t.Helper()
	prog, err := core.Compile(programs.MustSource(name), opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	src, err := Generate(prog, pkg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return src
}

// Every corpus program must generate syntactically valid Go in dv and
// dvstar, and be refused in memotable, whose §4.2.1 per-neighbour table
// generated code does not implement.
func TestGenerateParsesForWholeCorpus(t *testing.T) {
	for _, name := range programs.Names() {
		for _, mode := range []core.Mode{core.Incremental, core.Baseline} {
			name, mode := name, mode
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				src := generateT(t, name, mode)
				fset := token.NewFileSet()
				if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
					t.Fatalf("generated source does not parse: %v\n%s", err, src)
				}
			})
		}
		t.Run(name+"/"+core.MemoTable.String(), func(t *testing.T) {
			prog, err := core.Compile(programs.MustSource(name), core.Options{Mode: core.MemoTable})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if src, err := Generate(prog, "dvgen"); err == nil || !strings.Contains(err.Error(), "§4.2.1") {
				t.Fatalf("Generate = %v, want a refusal naming §4.2.1:\n%s", err, src)
			}
		})
	}
}

func TestGeneratedPageRankShowsPaperConstructs(t *testing.T) {
	src := generateT(t, "pagerank", core.Incremental)
	for _, want := range []string{
		"func computeDelta0(oldMsg, newMsg float64) float64 {",
		"return newMsg - oldMsg",                          // §3.3's computeDelta
		"v.dirtyG0 = b2f(math.Abs(v.pr-v.oldG0Pr) > 0.0)", // §6.3 change check
		"ctx.VoteToHalt()",                                // Eq. 12
		"msg := Message{Group: 0}",                        // Δ-message assembly
		"type VertexState struct",                         // §6.2 state
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("generated source missing %q:\n%s", want, src)
		}
	}
}

func TestGeneratedProdHasTaggedDelta(t *testing.T) {
	src := generateT(t, "prod", core.Incremental)
	for _, want := range []string{
		"func computeDelta0(oldMsg, newMsg, lastNonNull float64) (delta float64, isNull, prevNull bool)",
		"return newMsg / lastNonNull, false, true",
		"msg.TagNull |= 1 << 0",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("prod source missing %q:\n%s", want, src)
		}
	}
}

// The change check is the VM's: |f − $old| > ε for a float field (§9), at
// ε = 0 too, and exact for every other field.
func TestGeneratedChangeCheckHonoursEpsilon(t *testing.T) {
	for _, tc := range []struct {
		name string
		eps  float64
		want string
	}{
		{"pagerank", 0.01, "v.dirtyG0 = b2f(math.Abs(v.pr-v.oldG0Pr) > 0.01)"},
		{"pagerank", 0, "v.dirtyG0 = b2f(math.Abs(v.pr-v.oldG0Pr) > 0.0)"},
		{"reach", 0.01, "v.dirtyG0 = b2f(v.reach != v.oldG0Reach)"}, // a bool field
	} {
		src := generateOpts(t, tc.name, core.Options{Epsilon: tc.eps}, "dvgen")
		if !strings.Contains(src, tc.want) {
			t.Errorf("%s at ε = %g: generated source lacks %q:\n%s", tc.name, tc.eps, tc.want, src)
		}
	}
}

// Init is the VM's: the synthesized fields start at their defaults (§6.1,
// §6.3, §6.4.1), init{} runs, the prime sends only meaningful values, and
// what receivers now believe is recorded — $old, $lastnn, a clear dirty
// bit. Without the defaults prod's accumulator would start at 0 and every
// product would be 0.
func TestGeneratedProdInit(t *testing.T) {
	src := generateT(t, "prod", core.Incremental)
	start := strings.Index(src, "func Init(")
	end := strings.Index(src[start:], "\n}\n")
	if start < 0 || end < 0 {
		t.Fatalf("no Init in:\n%s", src)
	}
	init := src[start : start+end]
	at := 0
	for _, want := range []string{
		// defaults
		"v.lastnnS0 = 1.0", "v.dirtyG0 = 1.0", "v.accS0 = 1.0", "v.nnS0 = 1.0",
		// init{}
		"v.p = 1.0",
		// prime
		"if msg.Vals[0] == 0.0 {", "msg.TagNull |= 1 << 0", "} else if msg.Vals[0] != 1.0 {", "if send {",
		// record
		"v.dirtyG0 = 0.0", "v.oldG0W = v.w", "if v.w != 0.0 {", "v.lastnnS0 = v.w",
		"ctx.VoteToHalt()",
	} {
		i := strings.Index(init[at:], want)
		if i < 0 {
			t.Fatalf("Init lacks %q after offset %d:\n%s", want, at, init)
		}
		at += i + len(want)
	}
}

// The generated code must actually compile with the Go toolchain.
func TestGeneratedSourceBuilds(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module dvgen\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name string
		mode core.Mode
	}{
		{"pagerank", core.Incremental},
		{"hits", core.Incremental},
		{"sssp", core.Incremental},
		{"prod", core.Incremental},
		{"pagerank", core.Baseline},
	} {
		src := generateT(t, tc.name, tc.mode)
		// One package per file to avoid symbol collisions.
		sub := filepath.Join(dir, "p", string(rune('a'+i)))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "gen.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated code failed to build: %v\n%s", err, out)
	}
}
