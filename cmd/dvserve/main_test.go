package main

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
)

// TestDocCommentListsAllFlags guards against doc drift: every flag
// registered by registerFlags must be mentioned as "-name" in this file's
// package doc comment (the Usage block), and vice versa nothing forces the
// doc to shrink — new flags must be documented as they are added.
func TestDocCommentListsAllFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("cannot locate package clause in main.go")
	}
	fs := flag.NewFlagSet("dvserve", flag.ContinueOnError)
	registerFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "-"+f.Name) {
			t.Errorf("flag -%s is registered but missing from the doc comment Usage block", f.Name)
		}
	})
}

func TestRegisterFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("dvserve", flag.ContinueOnError)
	vals := registerFlags(fs)
	if err := fs.Parse([]string{
		"-mode", "memotable", "-program", "pagerank", "-gen", "rmat:5:4",
		"-addr", "127.0.0.1:0", "-batch-interval", "150ms",
		"-max-batch", "8", "-max-pending", "64", "-no-quarantine",
		"-param", "src=3", "-queue",
	}); err != nil {
		t.Fatal(err)
	}
	if vals.mode != "memotable" || vals.progName != "pagerank" || vals.gen != "rmat:5:4" {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.addr != "127.0.0.1:0" || vals.batchInterval != 150*time.Millisecond {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.maxBatch != 8 || vals.maxPending != 64 || !vals.noQuarantine || !vals.queue {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.params["src"] != 3 {
		t.Fatalf("params = %v", vals.params)
	}
}

// TestRunErrorPaths covers the CLI-boundary failures that must be caught
// before a listener is opened.
func TestRunErrorPaths(t *testing.T) {
	cases := []*flagVals{
		{mode: "dv", params: cli.ParamFlags{}},                                                      // no program
		{mode: "bogus", progName: "sssp", gen: "grid:3:3", params: cli.ParamFlags{}},                // bad mode
		{mode: "dv", progName: "sssp", params: cli.ParamFlags{}},                                    // no graph
		{mode: "dv", progName: "sssp", gen: "bogus:1", params: cli.ParamFlags{}},                    // bad generator
		{mode: "dv", progName: "nope", gen: "grid:3:3", params: cli.ParamFlags{}},                   // unknown program
		{mode: "dv", progName: "sssp", gen: "grid:3:3", params: cli.ParamFlags{"q": 1}},             // unknown param
		{mode: "dv", progName: "sssp", edges: "/nonexistent", params: cli.ParamFlags{}},             // missing file
		{mode: "dv", progName: "sssp", gen: "grid:3:3", dataset: "x", params: cli.ParamFlags{}},     // two sources
		{mode: "dv", progName: "sssp", gen: "grid:3:3", repr: "mmap", params: cli.ParamFlags{}},     // mmap needs dvg
		{mode: "dv", progName: "sssp", gen: "grid:3:3", repr: "bogus", params: cli.ParamFlags{}},    // bad repr
		{mode: "dv", file: "/nonexistent.dv", gen: "grid:3:3", params: cli.ParamFlags{}},            // missing source file
		{mode: "dv", progName: "sssp", gen: "grid:3:3", addr: "bogus:::", params: cli.ParamFlags{}}, // bad listen addr
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for i, v := range cases {
		if err := run(t.Context(), v, null); err == nil {
			t.Fatalf("case %d: run succeeded, want error", i)
		}
	}
}
