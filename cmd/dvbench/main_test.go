package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "table1", 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Table 1", "wikipedia-s", "facebook-s", "136.54M"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunTable2(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "table2", 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "48B") || !strings.Contains(out.String(), "pagerank") {
		t.Fatalf("table2 output:\n%s", out.String())
	}
}

// TestRunUnknownExperiment: a name that is not an experiment — including
// the engine, memory, shard and delta drivers dvbench no longer has — is
// refused before anything runs or prints.
func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"bogus", "pregel", "memory", "shard", "delta"} {
		var out bytes.Buffer
		err := run(context.Background(), &out, exp, 1)
		if err == nil {
			t.Fatalf("-exp %s: want an error", exp)
		}
		if !strings.Contains(err.Error(), "table1") {
			t.Fatalf("-exp %s: error %q does not list the experiments", exp, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-exp %s: printed before refusing:\n%s", exp, out.String())
		}
	}
}

func TestProfiledWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.out"
	mem := dir + "/mem.out"
	ran := false
	if err := profiled(cpu, mem, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("profiled did not invoke fn")
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("missing profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("empty profile %s", p)
		}
	}
}

// TestRunAbortKeepsCompletedExperiments is the mid-suite abort regression
// test: cancelling between experiments must not discard the experiments
// that already rendered. With a cancelled ctx, the ctx-free tables still
// print in full, every timed experiment renders its (empty) table with an
// ABORTED marker, later experiments are still attempted, and the first
// abort error decides the exit status.
func TestRunAbortKeepsCompletedExperiments(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // "between experiments": before any timed measurement starts
	var buf bytes.Buffer
	err := run(ctx, &buf, "all", 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "136.54M", // ctx-free experiments completed in full
		"Table 2", "pagerank",
		"Figure 4", "Figure 5", // timed experiments still rendered headers…
		"ABORTED:",                 // …with abort markers
		"lookup-table memoization", // and the suite continued into ablations
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "ABORTED:"); n != 3 { // fig4, fig5, first ablation
		t.Fatalf("ABORTED markers = %d, want 3:\n%s", n, out)
	}
}
