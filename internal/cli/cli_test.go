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
}

// TestGenerateSpecs: a -gen spec runs only when every field parses, the
// field count matches its generator and the sizes are in range; the
// error names the spec.
func TestGenerateSpecs(t *testing.T) {
	cases := []struct {
		spec string
		n    int    // vertices when the spec is good
		want string // error substring when it is not
	}{
		{spec: "rmat:4:2", n: 16},
		{spec: "ba:20:2", n: 20},
		{spec: "er:10:20", n: 10},
		{spec: "grid:3:4", n: 12},
		{spec: "ws:12:4:0.25", n: 12},
		{spec: "ws:12:4:1", n: 12},
		{spec: "rmat:x:8", want: "not a positive integer"},
		{spec: "rmat", want: "takes 2 fields, got 0"},
		{spec: "rmat:4", want: "takes 2 fields, got 1"},
		{spec: "rmat:4:2:1", want: "takes 2 fields, got 3"},
		{spec: "rmat:31:1", want: "past 30"},
		{spec: "grid:3", want: "takes 2 fields"},
		{spec: "grid:-3:4", want: "not a positive integer"},
		{spec: "grid:3:0", want: "not a positive integer"},
		{spec: "er:-5:3", want: "not a positive integer"},
		{spec: "er:4:13", want: "only 12 distinct edges"},
		{spec: "ba:10:2.5", want: "not a positive integer"},
		{spec: "ws:12:4", want: "takes 3 fields"},
		{spec: "ws:12:4:x", want: "not a float in [0, 1]"},
		{spec: "ws:12:4:1.5", want: "not a float in [0, 1]"},
		{spec: "ws:12:4:NaN", want: "not a float in [0, 1]"},
		{spec: "bogus:1", want: "unknown generator"},
	}
	for _, c := range cases {
		g, err := GraphSource{Gen: c.spec, Directed: true, Seed: 1}.Load()
		if c.want == "" {
			if err != nil || g.NumVertices() != c.n {
				t.Errorf("-gen %s: n=%v err=%v, want %d vertices", c.spec, g != nil && g.NumVertices() == c.n, err, c.n)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), c.spec) {
			t.Errorf("-gen %s: err = %v, want %q naming the spec", c.spec, err, c.want)
		}
	}
}
