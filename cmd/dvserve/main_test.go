package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestDocCommentListsAllFlags guards against doc drift both ways: every
// flag registered by registerFlags is mentioned as "-name" in this file's
// package doc comment, every -name in its Usage block is a registered
// flag, and every dvserve command README.md shows, its `\` continuations
// joined, parses with those flags.
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
	_, usage, _ := strings.Cut(doc, "// Usage:\n//\n")
	usage, _, _ = strings.Cut(usage, "\n//\n")
	names := regexp.MustCompile(`[\s\[(|]-([a-z][a-z-]*)`).FindAllStringSubmatch(usage, -1)
	if len(names) == 0 {
		t.Fatal("main.go has no Usage block naming flags")
	}
	for _, m := range names {
		if fs.Lookup(m[1]) == nil {
			t.Errorf("the Usage block names -%s, which is not a flag", m[1])
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := regexp.MustCompile(`(?m)^\$ go run \./cmd/dvserve ((?:.*\\\n)*.*)`).FindAllStringSubmatch(string(readme), -1)
	if len(cmds) == 0 {
		t.Fatal("README.md shows no dvserve command")
	}
	for _, m := range cmds {
		// Continuations joined, the shell's part (a comment, a
		// redirection, a pipe or a `&`) cut.
		args := strings.ReplaceAll(m[1], "\\\n", " ")
		args = args[:strings.IndexAny(args+"#", "#&|<>;")]
		fs := flag.NewFlagSet("dvserve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs)
		if err := fs.Parse(strings.Fields(args)); err != nil || fs.NArg() > 0 {
			t.Errorf("README.md: dvserve %s: %v, arguments left %q", args, err, fs.Args())
		}
	}
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
		"-max-batch", "8", "-max-pending", "64",
		"-param", "src=3", "-chain-dir", "/tmp/ch", "-repair-budget", "0.5",
	)
	if vals.Mode != "memotable" || vals.ProgName != "pagerank" || vals.Graph.Gen != "rmat:5:4" {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.addr != "127.0.0.1:0" || vals.batchInterval != 150*time.Millisecond {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.maxBatch != 8 || vals.maxPending != 64 || vals.chainDir != "/tmp/ch" || vals.repairBudget != 0.5 {
		t.Fatalf("vals = %+v", vals)
	}
	if vals.Params["src"] != 3 {
		t.Fatalf("params = %v", vals.Params)
	}
	// The run-cost ablations change no served answer: they are dvrun's.
	fs := flag.NewFlagSet("dvserve", flag.ContinueOnError)
	registerFlags(fs)
	for _, name := range []string{"queue", "combine", "no-quarantine"} {
		if fs.Lookup(name) != nil {
			t.Errorf("dvserve registers -%s", name)
		}
	}
}

// TestRunErrorPaths covers the CLI-boundary failures that must be caught
// before a listener is opened.
func TestRunErrorPaths(t *testing.T) {
	cases := [][]string{
		{}, // no program
		{"-mode", "bogus", "-program", "sssp", "-gen", "grid:3:3"}, // bad mode
		{"-program", "sssp"},                                              // no graph
		{"-program", "sssp", "-gen", "bogus:1"},                           // bad generator
		{"-program", "sssp", "-gen", "grid:3"},                            // short generator spec
		{"-program", "nope", "-gen", "grid:3:3"},                          // unknown program
		{"-program", "sssp", "-gen", "grid:3:3", "-param", "q=1"},         // unknown param
		{"-program", "sssp", "-edges", "/nonexistent"},                    // missing file
		{"-program", "sssp", "-gen", "grid:3:3", "-dataset", "x"},         // two sources
		{"-program", "sssp", "-gen", "grid:3:3", "-repr", "mmap"},         // mmap needs dvg
		{"-program", "sssp", "-gen", "grid:3:3", "-repr", "bogus"},        // bad repr
		{"-file", "/nonexistent.dv", "-gen", "grid:3:3"},                  // missing source file
		{"-program", "sssp", "-gen", "grid:3:3", "-addr", "bogus:::"},     // bad listen addr
		{"-program", "sssp", "-gen", "grid:3:3", "-repair-budget", "NaN"}, // NaN budget
		{"-program", "sssp", "-gen", "grid:3:3", "-repair-budget", "-1"},  // negative budget
	}
	for i, args := range cases {
		if err := run(t.Context(), parse(t, args...), io.Discard); err == nil {
			t.Fatalf("case %d %v: run succeeded, want error", i, args)
		}
	}
}
