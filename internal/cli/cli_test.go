package cli

import (
	"strings"
	"testing"
)

func TestParamFlagParsing(t *testing.T) {
	p := ParamFlags{}
	if err := p.Set("src=5"); err != nil || p["src"] != 5 {
		t.Fatalf("Set(src=5): %v %v", err, p)
	}
	if err := p.Set("bogus"); err == nil {
		t.Fatal("Set without '=' should fail")
	}
	if err := p.Set("x=abc"); err == nil {
		t.Fatal("Set with non-numeric value should fail")
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
}

func TestLoadConflictingSources(t *testing.T) {
	cases := []struct {
		dataset, edges, gen string
		wantNames           []string
	}{
		{"wikipedia-s", "g.el", "", []string{"-dataset", "-edges"}},
		{"wikipedia-s", "", "grid:3:3", []string{"-dataset", "-gen"}},
		{"", "g.el", "grid:3:3", []string{"-edges", "-gen"}},
		{"wikipedia-s", "g.el", "grid:3:3", []string{"-dataset", "-edges", "-gen"}},
	}
	for _, c := range cases {
		_, err := GraphSource{Dataset: c.dataset, Edges: c.edges, Gen: c.gen, Directed: true, Seed: 1}.Load()
		if err == nil {
			t.Fatalf("Load(%q, %q, %q) succeeded, want conflict error", c.dataset, c.edges, c.gen)
		}
		for _, name := range c.wantNames {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("conflict error %q does not name %s", err, name)
			}
		}
	}
	// A single source must still work (and none must still say so).
	if _, err := (GraphSource{Gen: "grid:3:3", Directed: true, Seed: 1}).Load(); err != nil {
		t.Fatalf("single -gen source: %v", err)
	}
	if _, err := (GraphSource{Directed: true, Seed: 1}).Load(); err == nil || !strings.Contains(err.Error(), "need one of") {
		t.Fatalf("no source error = %v", err)
	}
}

// TestLoadRepr pins the -repr rules every command shares: compact converts
// any source, mmap needs a DVGRAF file, anything else is refused.
func TestLoadRepr(t *testing.T) {
	gen := GraphSource{Gen: "grid:3:3", Seed: 1}
	gen.Repr = "compact"
	g, err := gen.Load()
	if err != nil || !g.IsCompact() {
		t.Fatalf("-repr compact over -gen: compact=%v err=%v", g != nil && g.IsCompact(), err)
	}
	gen.Repr = "mmap"
	if _, err := gen.Load(); err == nil || !strings.Contains(err.Error(), "-repr mmap needs a DVGRAF") {
		t.Fatalf("-repr mmap over -gen: err = %v", err)
	}
	gen.Repr = "bogus"
	if _, err := gen.Load(); err == nil || !strings.Contains(err.Error(), "unknown representation") {
		t.Fatalf("-repr bogus: err = %v", err)
	}
	if _, err := (GraphSource{Edges: "g.el", Format: "bogus"}).Load(); err == nil || !strings.Contains(err.Error(), "unknown -graph-format") {
		t.Fatalf("-graph-format bogus: err = %v", err)
	}
}
