package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildOnce builds the dvc binary for subprocess tests.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tool")
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = findModuleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func findModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found")
		}
		dir = parent
	}
}

func runTool(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestDVC(t *testing.T) {
	bin := buildTool(t, "repro/cmd/dvc")

	t.Run("list", func(t *testing.T) {
		out, err := runTool(t, bin, "-list")
		if err != nil {
			t.Fatal(err, out)
		}
		for _, want := range []string{"pagerank", "sssp", "cc", "hits"} {
			if !strings.Contains(out, want) {
				t.Fatalf("-list missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("emit-compiled", func(t *testing.T) {
		out, err := runTool(t, bin, "-program", "pagerank", "-emit", "compiled")
		if err != nil {
			t.Fatal(err, out)
		}
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
			out, err := runTool(t, bin, "-program", tc.program, "-vet=false", "-emit", "compiled")
			if err != nil {
				t.Fatal(err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Fatalf("%s: compiled output missing %q:\n%s", tc.program, want, out)
				}
			}
		}
	})
	t.Run("emit-source-roundtrip", func(t *testing.T) {
		out, err := runTool(t, bin, "-program", "sssp", "-emit", "source")
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "min [ u.dist + ew | u <- #in ]") {
			t.Fatalf("source output unexpected:\n%s", out)
		}
	})
	t.Run("emit-layout", func(t *testing.T) {
		out, err := runTool(t, bin, "-program", "pagerank", "-emit", "layout")
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "vertex state: 48 bytes") {
			t.Fatalf("layout output unexpected:\n%s", out)
		}
	})
	t.Run("emit-go", func(t *testing.T) {
		out, err := runTool(t, bin, "-program", "pagerank", "-emit", "go", "-mode", "dvstar")
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "func ComputePhase0") {
			t.Fatalf("go output unexpected:\n%s", out)
		}
	})
	t.Run("file-input", func(t *testing.T) {
		f := filepath.Join(t.TempDir(), "p.dv")
		src := "init { local x : float = 1.0 };\nstep { x = + [ u.x | u <- #in ] }\n"
		if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runTool(t, bin, "-emit", "compiled", "-file", f)
		if err != nil {
			t.Fatal(err, out)
		}
		if !strings.Contains(out, "site 0") {
			t.Fatalf("file compile output unexpected:\n%s", out)
		}
	})
	t.Run("errors", func(t *testing.T) {
		for _, args := range [][]string{
			{"-program", "nope"},
			{"-mode", "bogus", "-program", "pagerank"},
			{"-emit", "bogus", "-program", "pagerank"},
			{},                               // no input
			{"-program", "pagerank", "p.dv"}, // a source file is named with -file
		} {
			if out, err := runTool(t, bin, args...); err == nil {
				t.Fatalf("dvc %v succeeded, want error:\n%s", args, out)
			}
		}
	})
}
