package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"
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

// parse builds flag values from CLI-style arguments through the same
// wiring main uses.
func parse(t *testing.T, args ...string) *flags {
	t.Helper()
	fs := flag.NewFlagSet("dvserve", flag.ContinueOnError)
	vals := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return vals
}

func TestRegisterFlagsRoundTrip(t *testing.T) {
	vals := parse(t,
		"-mode", "memotable", "-program", "pagerank", "-gen", "rmat:5:4",
		"-addr", "127.0.0.1:0", "-batch-interval", "150ms",
		"-max-batch", "8", "-max-pending", "64", "-no-quarantine",
		"-param", "src=3", "-queue",
	)
	if vals.Mode != "memotable" || vals.ProgName != "pagerank" || vals.Graph.Gen != "rmat:5:4" {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.addr != "127.0.0.1:0" || vals.batchInterval != 150*time.Millisecond {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.maxBatch != 8 || vals.maxPending != 64 || !vals.noQuarantine || !vals.Queue {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.Params["src"] != 3 {
		t.Fatalf("params = %v", vals.Params)
	}
}

// TestRunErrorPaths covers the CLI-boundary failures that must be caught
// before a listener is opened.
func TestRunErrorPaths(t *testing.T) {
	cases := [][]string{
		{}, // no program
		{"-mode", "bogus", "-program", "sssp", "-gen", "grid:3:3"}, // bad mode
		{"-program", "sssp"},                                          // no graph
		{"-program", "sssp", "-gen", "bogus:1"},                       // bad generator
		{"-program", "sssp", "-gen", "grid:3"},                        // short generator spec
		{"-program", "nope", "-gen", "grid:3:3"},                      // unknown program
		{"-program", "sssp", "-gen", "grid:3:3", "-param", "q=1"},     // unknown param
		{"-program", "sssp", "-edges", "/nonexistent"},                // missing file
		{"-program", "sssp", "-gen", "grid:3:3", "-dataset", "x"},     // two sources
		{"-program", "sssp", "-gen", "grid:3:3", "-repr", "mmap"},     // mmap needs dvg
		{"-program", "sssp", "-gen", "grid:3:3", "-repr", "bogus"},    // bad repr
		{"-file", "/nonexistent.dv", "-gen", "grid:3:3"},              // missing source file
		{"-program", "sssp", "-gen", "grid:3:3", "-addr", "bogus:::"}, // bad listen addr
	}
	for i, args := range cases {
		if err := run(t.Context(), parse(t, args...), io.Discard); err == nil {
			t.Fatalf("case %d %v: run succeeded, want error", i, args)
		}
	}
}
