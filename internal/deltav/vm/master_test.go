package vm

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// evalMasterOn compiles a one-iter program with the given until condition
// and evaluates its lowered form directly, as the master does.
func evalMasterOn(t *testing.T, until string, iter int, fixpoint bool, params map[string]float64) bool {
	t.Helper()
	src := "param p : float = 2.5;\ninit { local x : float = 1.0 };\niter k { x = + [ u.x | u <- #in ] } until { " + until + " }"
	prog, err := core.Compile(src, core.Options{Mode: core.Incremental})
	if err != nil {
		t.Fatalf("compile until %q: %v", until, err)
	}
	m, err := NewMachine(prog, graph.Path(4, true), RunOptions{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return m.x.untilSatisfied(0, iter, fixpoint)
}

func TestMasterUntilEvaluation(t *testing.T) {
	cases := []struct {
		until    string
		iter     int
		fixpoint bool
		want     bool
	}{
		{"k >= 30", 30, false, true},
		{"k >= 30", 29, false, false},
		{"fixpoint", 1, true, true},
		{"fixpoint", 1, false, false},
		{"fixpoint || k >= 5", 5, false, true},
		{"fixpoint && k >= 5", 7, false, false},
		{"fixpoint && k >= 5", 7, true, true},
		{"not fixpoint", 1, false, true},
		{"k == 3", 3, false, true},
		{"k != 3", 3, false, false},
		{"k < 2 || k > 4", 5, false, true},
		{"k <= 2", 2, false, true},
		{"min k 10 >= 7", 8, false, true},
		{"max k 10 >= 11", 8, false, false},
		{"1.0 * k / graphSize >= 1.0", 4, false, true},  // 4/4
		{"1.0 * k / graphSize >= 1.0", 3, false, false}, // 3/4
		{"1.0 * k >= p", 3, false, true},                // param p = 2.5
		{"1.0 * k >= p", 2, false, false},
		{"if fixpoint then true else k >= 6", 6, false, true},
		{"if fixpoint then true else k >= 6", 5, false, false},
		{"k - 1 + 2 * 2 >= 8", 5, false, true},
		{"-k <= -3", 3, false, true},
		{"k >= 100 == false", 4, false, true},
	}
	for _, tc := range cases {
		if got := evalMasterOn(t, tc.until, tc.iter, tc.fixpoint, nil); got != tc.want {
			t.Errorf("until %q at k=%d fix=%v: got %v, want %v", tc.until, tc.iter, tc.fixpoint, got, tc.want)
		}
	}
}

func TestMasterUntilParamOverride(t *testing.T) {
	if !evalMasterOn(t, "1.0 * k >= p", 2, false, map[string]float64{"p": 1.5}) {
		t.Fatal("param override not visible to until evaluation")
	}
}

func TestDegreeForms(t *testing.T) {
	// |#in|, |#out| and |#neighbors| through a program that stores them.
	src := `
init {
  local din : int = |#in|;
  local dout : int = |#out|;
  local s : float = 0.0
};
step { s = + [ u.s | u <- #in ] }`
	prog, err := core.Compile(src, core.Options{Mode: core.Incremental})
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(1, 2)
	g := b.Finalize()
	g.BuildReverse()
	res, err := Run(prog, g, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Field("din", 1) != 2 || res.Field("dout", 1) != 1 {
		t.Fatalf("degrees of vertex 1 = (%g,%g), want (2,1)", res.Field("din", 1), res.Field("dout", 1))
	}
	// Undirected |#neighbors|.
	src2 := `
init { local d : int = |#neighbors|; local s : float = 0.0 };
step { s = + [ u.s | u <- #neighbors ] }`
	prog2, err := core.Compile(src2, core.Options{Mode: core.Incremental})
	if err != nil {
		t.Fatal(err)
	}
	ug := graph.Star(5, false)
	res2, err := Run(prog2, ug, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Field("d", 0) != 4 || res2.Field("d", 1) != 1 {
		t.Fatalf("star degrees = (%g,%g), want (4,1)", res2.Field("d", 0), res2.Field("d", 1))
	}
}

func TestMessageBytesAccounting(t *testing.T) {
	// One slot, no tags: 1 + 8 bytes.
	pr := mustCompile("pagerank", core.Incremental)
	if got := MessageBytes(pr); got != 9 {
		t.Fatalf("pagerank message bytes = %d, want 9", got)
	}
	// Multiplicative adds a tag byte.
	prod := mustCompile("prod", core.Incremental)
	if got := MessageBytes(prod); got != 10 {
		t.Fatalf("prod message bytes = %d, want 10", got)
	}
	// MemoTable adds the 4-byte sender id.
	tbl := mustCompile("pagerank", core.MemoTable)
	if got := MessageBytes(tbl); got != 13 {
		t.Fatalf("memotable message bytes = %d, want 13", got)
	}
}

func TestProgramStringAndModeNames(t *testing.T) {
	for mode, want := range map[core.Mode]string{
		core.Incremental: "dV",
		core.Baseline:    "dV*",
		core.MemoTable:   "dV-memotable",
	} {
		if mode.String() != want {
			t.Errorf("mode %d = %q, want %q", mode, mode.String(), want)
		}
	}
	for strat, want := range map[core.Strategy]string{
		core.StrategyMemoized: "memoized",
		core.StrategyScratch:  "scratch",
		core.StrategyTable:    "table",
	} {
		if strat.String() != want {
			t.Errorf("strategy %d = %q, want %q", strat, strat.String(), want)
		}
	}
	for kind, want := range map[core.FieldKind]string{
		core.UserField: "user", core.OldOfField: "old", core.DirtyField: "dirty",
		core.AccField: "acc", core.NNAccField: "nnacc", core.NullsField: "nulls",
		core.LastNNField: "lastnn",
	} {
		if kind.String() != want {
			t.Errorf("field kind %d = %q, want %q", kind, kind.String(), want)
		}
	}
	if s := mustCompile("hits", core.Incremental).String(); !strings.Contains(s, "group 1") {
		t.Fatalf("hits Program.String missing second group:\n%s", s)
	}
}
