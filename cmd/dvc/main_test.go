package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/programs"
)

// dvc runs the command in-process with args and returns its exit status
// and what it wrote to standard output and standard error.
func dvc(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustDVC is dvc for an invocation that must exit 0; it returns stdout.
func mustDVC(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := dvc(args...)
	if code != 0 {
		t.Fatalf("dvc %v: exit %d\n%s%s", args, code, out, errOut)
	}
	return out
}

func TestDVC(t *testing.T) {
	t.Run("list", func(t *testing.T) {
		out := mustDVC(t, "-list")
		for _, want := range []string{"pagerank", "sssp", "cc", "hits"} {
			if !strings.Contains(out, want) {
				t.Fatalf("-list missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("emit-compiled", func(t *testing.T) {
		out := mustDVC(t, "-program", "pagerank", "-emit", "compiled")
		for _, want := range []string{"delta<0>(pr)", "$dirty_g0", "halt"} {
			if !strings.Contains(out, want) {
				t.Fatalf("compiled output missing %q:\n%s", want, out)
			}
		}
	})
	// The start and wake verdicts, and the kernel lines after them.
	t.Run("emit-compiled-wake", func(t *testing.T) {
		for _, tc := range []struct {
			program string
			want    []string
		}{
			{"sssp", []string{
				"start: id == src runs init; every other vertex starts halted at dist = ∞, $old_g0_dist = ∞, $dirty_g0 = 0, $acc_s0 = ∞ (while every weight is finite)\n",
				"phase 0 start: wakes only the vertices the prime's messages reach; the prime halts a vertex only if dist == dist\n",
				"phase 0 body: send group 0 over #out: kernel: per-arc Δ-min x + w\n",
			}},
			{"pagerank", []string{
				"start: every vertex runs init: the prime may send group 0: its value depends on a degree\n",
				"phase 0 start: wakes every vertex: vl depends on |V|\n",
				"phase 0 body: recv group 0: kernel: fold sum\n",
				"phase 0 body: send group 0 over #out: kernel: closure\n",
			}},
			{"twophase", []string{
				"phase 0 start: wakes every vertex: s becomes 0\n",
				"phase 1 start: wakes only the vertices the prime's messages reach; the prime halts a vertex only if t == t && s == s\n",
			}},
		} {
			out := mustDVC(t, "-program", tc.program, "-emit", "compiled")
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Fatalf("%s: compiled output missing %q:\n%s", tc.program, want, out)
				}
			}
		}
	})
	t.Run("emit-source-roundtrip", func(t *testing.T) {
		out := mustDVC(t, "-program", "sssp", "-emit", "source")
		if !strings.Contains(out, "min [ u.dist + ew | u <- #in ]") {
			t.Fatalf("source output unexpected:\n%s", out)
		}
	})
	t.Run("emit-layout", func(t *testing.T) {
		out := mustDVC(t, "-program", "pagerank", "-emit", "layout")
		if !strings.Contains(out, "vertex state: 48 bytes") {
			t.Fatalf("layout output unexpected:\n%s", out)
		}
	})
	t.Run("emit-go", func(t *testing.T) {
		out := mustDVC(t, "-program", "pagerank", "-emit", "go", "-mode", "dvstar")
		if !strings.Contains(out, "func ComputePhase0") {
			t.Fatalf("go output unexpected:\n%s", out)
		}
	})
	// Generated code has no §4.2.1 table: the generator refuses.
	t.Run("emit-go-memotable", func(t *testing.T) {
		code, out, errOut := dvc("-program", "sssp", "-emit", "go", "-mode", "memotable")
		if code != 1 || out != "" || !strings.Contains(errOut, "§4.2.1") {
			t.Fatalf("exit %d, want 1 and a refusal naming §4.2.1:\n%s%s", code, out, errOut)
		}
	})
	t.Run("file-input", func(t *testing.T) {
		f := filepath.Join(t.TempDir(), "p.dv")
		src := "init { local x : float = 1.0 };\nstep { x = + [ u.x | u <- #in ] }\n"
		if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out := mustDVC(t, "-emit", "compiled", "-file", f)
		if !strings.Contains(out, "site 0") {
			t.Fatalf("file compile output unexpected:\n%s", out)
		}
	})
	t.Run("errors", func(t *testing.T) {
		for _, args := range [][]string{
			{"-program", "nope"},
			{"-mode", "bogus", "-program", "pagerank"},
			{"-mode", "bogus", "-program", "pagerank", "-emit", "source"},
			{"-emit", "bogus", "-program", "pagerank"},
			{},                               // no input
			{"-program", "pagerank", "p.dv"}, // a source file is named with -file
		} {
			if code, out, errOut := dvc(args...); code == 0 {
				t.Fatalf("dvc %v succeeded, want error:\n%s%s", args, out, errOut)
			}
		}
	})
}

// TestCompileWholeCorpus: every embedded program compiles in every mode,
// as dvrun and dvserve compile it, and compiling prints the warnings vet
// pins for it (prod's only) on standard error.
func TestCompileWholeCorpus(t *testing.T) {
	for _, name := range programs.Names() {
		warns, err := os.ReadFile(filepath.Join("testdata", "vet", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want := ""
		if len(warns) > 0 {
			want = "dvc vet: " + string(warns)
		}
		for _, mode := range matrixModes {
			code, out, errOut := dvc("-program", name, "-mode", mode)
			if code != 0 || !strings.HasPrefix(out, "mode: ") || errOut != want {
				t.Fatalf("dvc -program %s -mode %s: exit %d\n%s--- standard error ---\n%s--- want ---\n%s",
					name, mode, code, out, errOut, want)
			}
		}
	}
}

// TestMinMaxCompilesAlikeInDVAndDVStar: a min/max site is its own Δ
// (DESIGN §6.5), so a program whose only aggregations are min/max compiles
// to the same program in dv and dvstar, apart from the mode line.
func TestMinMaxCompilesAlikeInDVAndDVStar(t *testing.T) {
	for _, name := range []string{"bfs", "cc", "maxval", "sssp", "wcc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			dv := mustDVC(t, "-program", name, "-mode", "dv", "-emit", "compiled")
			star := mustDVC(t, "-program", name, "-mode", "dvstar", "-emit", "compiled")
			_, dvBody, _ := strings.Cut(dv, "\n")
			_, starBody, _ := strings.Cut(star, "\n")
			if !strings.HasPrefix(dv, "mode: ") || !strings.HasPrefix(star, "mode: ") || dvBody != starBody {
				t.Fatalf("dv and dvstar compile %s differently:\n--- dv ---\n%s--- dvstar ---\n%s", name, dv, star)
			}
		})
	}
}
