package core

import (
	"strings"
	"testing"

	"repro/internal/programs"
)

// TestCorpusKernels pins what every receive and send of every corpus
// program runs as, in every mode: the kernel part of each KernelLines
// line, in order. A lowering change that pushes sssp's fold and per-arc
// sends, or pagerank's fold, back onto closures shows up here.
func TestCorpusKernels(t *testing.T) {
	const (
		closures3 = "closure; closure; closure"
		closures2 = "closure; closure"
		closures6 = "closure; closure; closure; closure; closure; closure"
		closures4 = "closure; closure; closure; closure"
	)
	want := map[string][3]string{ // per mode: dV, dV★, memo-table
		"allreach":  {closures3, closures3, closures2},
		"bfs":       {"fold min; closure; closure", "fold min; closure; closure", closures2},
		"cc":        {"fold min; closure; closure", "fold min; closure; closure", closures2},
		"degreesum": {"fold sum; closure; closure", "fold sum; closure; closure", closures2},
		"hits":      {closures6, closures6, closures4},
		"maxval":    {"fold max; closure; closure", "fold max; closure; closure", closures2},
		"pagerank":  {"fold sum; closure; closure", "fold sum; closure; closure", closures2},
		"prod":      {closures3, closures3, closures2},
		"reach":     {closures3, closures3, closures2},
		"sssp": {
			"fold min; per-arc Δ-min x + w; per-arc full-min x + w",
			"fold min; per-arc Δ-min x + w; per-arc full-min x + w",
			closures2,
		},
		"twophase": {closures6, closures6, closures4},
		"wcc":      {closures6, closures6, closures4},
	}
	for _, name := range programs.Names() {
		rows, ok := want[name]
		if !ok {
			t.Errorf("%s: no row in the table", name)
			continue
		}
		for i, mode := range []Mode{Incremental, Baseline, MemoTable} {
			p, err := Compile(programs.MustSource(name), Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			var got []string
			for _, line := range p.KernelLines() {
				_, k, _ := strings.Cut(line, "kernel: ")
				got = append(got, k)
			}
			if g := strings.Join(got, "; "); g != rows[i] {
				t.Errorf("%s %v:\n got %s\nwant %s", name, mode, g, rows[i])
			}
		}
	}
}
