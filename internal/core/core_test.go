package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/deltav/ast"
	"repro/internal/deltav/types"
	"repro/internal/programs"
)

func compileT(t *testing.T, name string, mode Mode) *Program {
	t.Helper()
	p, err := Compile(programs.MustSource(name), Options{Mode: mode})
	if err != nil {
		t.Fatalf("compile %s %v: %v", name, mode, err)
	}
	return p
}

func TestCompileCorpusAllModes(t *testing.T) {
	for _, name := range programs.Names() {
		for _, mode := range []Mode{Incremental, Baseline, MemoTable} {
			name, mode := name, mode
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				p := compileT(t, name, mode)
				if len(p.Phases) == 0 {
					t.Fatal("no phases")
				}
				if p.Layout.ByteSize()%8 != 0 {
					t.Fatalf("state size %d not 8-aligned", p.Layout.ByteSize())
				}
			})
		}
	}
}

// TestPageRankTransformGolden pins the transformed program for the paper's
// running example: the Eq. 8 receive loop, the §6.3 change check lifted
// out of the broadcast (Eq. 7), the Δ-message send (Eq. 10), the old-value
// update, and the Eq. 12 halt.
func TestPageRankTransformGolden(t *testing.T) {
	p := compileT(t, "pagerank", Incremental)
	body := ast.ExprString(p.Phases[0].Body)
	for _, want := range []string{
		"for (m : messages<0>) {\n    $acc_s0 = $acc_s0 + m.slot0\n  }", // Eq. 8
		"let sum : float = $acc_s0",                                     // aggregation reads the accumulator
		"$dirty_g0 = changed(pr)",                                       // Eq. 5 (lazy form)
		"if $dirty_g0 then {",                                           // Eq. 6/7: check lifted out of the loop
		"send(u, delta<0>(pr))",                                         // Eq. 10
		"$old_g0_pr = pr",                                               // §6.2 most-recently-sent update
		"halt",                                                          // Eq. 12
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("transformed body missing %q:\n%s", want, body)
		}
	}
	// The change check must come before the gated send.
	if strings.Index(body, "$dirty_g0 = changed(pr)") > strings.Index(body, "if $dirty_g0") {
		t.Fatalf("dirty computation after its use:\n%s", body)
	}
}

func TestBaselineOmitsMessageReductionMachinery(t *testing.T) {
	p := compileT(t, "pagerank", Baseline)
	body := ast.ExprString(p.Phases[0].Body)
	for _, banned := range []string{"delta<", "changed(", "$old_", "$dirty_", "halt"} {
		if strings.Contains(body, banned) {
			t.Fatalf("ΔV★ body contains %q:\n%s", banned, body)
		}
	}
	// Scratch semantics: accumulator reset each superstep (Eq. 3).
	if !strings.Contains(body, "$acc_s0 = 0.0") {
		t.Fatalf("ΔV★ body missing scratch reset:\n%s", body)
	}
	if p.Phases[0].Halts {
		t.Fatal("ΔV★ PageRank must not halt by default (scratch group)")
	}
}

func TestIdempotentSitesCompileIdenticallyInBothModes(t *testing.T) {
	// SSSP and CC are "pre-incrementalized" (§7.2): the ΔV and ΔV★
	// pipelines must produce identical phase bodies.
	for _, name := range []string{"sssp", "cc", "maxval"} {
		inc := compileT(t, name, Incremental)
		base := compileT(t, name, Baseline)
		for i := range inc.Phases {
			a := ast.ExprString(inc.Phases[i].Body)
			b := ast.ExprString(base.Phases[i].Body)
			if a != b {
				t.Fatalf("%s phase %d differs between ΔV and ΔV★:\n--- ΔV ---\n%s\n--- ΔV★ ---\n%s", name, i, a, b)
			}
		}
		if inc.Layout.ByteSize() != base.Layout.ByteSize() {
			t.Fatalf("%s: state sizes differ: %d vs %d", name, inc.Layout.ByteSize(), base.Layout.ByteSize())
		}
	}
}

func TestMultiplicativeTransformGolden(t *testing.T) {
	p := compileT(t, "prod", Incremental)
	body := ast.ExprString(p.Phases[0].Body)
	for _, want := range []string{
		"is_nullary<0>(m)",          // Eq. 9 dispatch
		"$nulls_s0 = $nulls_s0 + 1", // nullary arrival
		"$nn_s0 = $nn_s0 * m.slot0", // non-nulled accumulator
		"prev_nullary<0>(m)",        // tag check
		"$nulls_s0 = $nulls_s0 - 1", // recovery
		"if $nulls_s0 == 0 then {",  // commit
		"$acc_s0 = $nn_s0",          // non-null commit
		"$acc_s0 = 0.0",             // nullary_elem commit
		"$lastnn_s0",                // Δ ratio base
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("multiplicative body missing %q:\n%s", want, body)
		}
	}
}

func TestHITSGroupsAndSlots(t *testing.T) {
	p := compileT(t, "hits", Incremental)
	if len(p.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(p.Sites))
	}
	if len(p.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (different pull directions)", len(p.Groups))
	}
	dirs := map[ast.GraphDir]bool{}
	for _, g := range p.Groups {
		dirs[g.PullDir] = true
		if g.PushDir == g.PullDir {
			t.Fatalf("push dir not reversed: %v", g.PushDir)
		}
	}
	if !dirs[ast.DirIn] || !dirs[ast.DirOut] {
		t.Fatalf("directions = %v, want #in and #out", dirs)
	}
}

func TestSharedDirectionSitesShareGroup(t *testing.T) {
	src := `
init { local a : float = 1.0; local b : float = 2.0 };
step {
  let x : float = + [ u.a | u <- #in ] in
  let y : float = + [ u.b | u <- #in ] in
  a = x + y
}`
	p, err := Compile(src, Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (same direction and strategy)", len(p.Groups))
	}
	if len(p.Groups[0].Sites) != 2 || p.MaxSlotsPerGroup != 2 {
		t.Fatalf("group sites = %v, maxslots = %d", p.Groups[0].Sites, p.MaxSlotsPerGroup)
	}
	// Two sites, one message: the dirty check must mention both fields.
	body := ast.ExprString(p.Phases[0].Body)
	if !strings.Contains(body, "changed(a) || changed(b)") {
		t.Fatalf("group dirty check missing:\n%s", body)
	}
	if !strings.Contains(body, "send(u, delta<0>(a), delta<1>(b))") {
		t.Fatalf("two-slot send missing:\n%s", body)
	}
}

func TestMixedStrategySplitsGroups(t *testing.T) {
	src := `
init { local a : float = 1.0; local b : float = 2.0 };
step {
  let x : float = + [ u.a | u <- #in ] in
  let y : float = min [ u.b | u <- #in ] in
  a = x + y
}`
	p, err := Compile(src, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: + is scratch, min is memoized → separate groups despite
	// the same direction.
	if len(p.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (scratch vs memoized)", len(p.Groups))
	}
}

// TestTable2StateSizes pins the Table 2 shape: ΔV adds a bounded number of
// bytes over ΔV★, and the increments match the synthesized fields.
func TestTable2StateSizes(t *testing.T) {
	rows := map[string]struct{ dv, dvStar int }{
		"pagerank": {48, 32},
		"sssp":     {40, 40}, // idempotent: identical layouts
		"cc":       {40, 40},
		"hits":     {64, 40},
	}
	for name, want := range rows {
		inc := compileT(t, name, Incremental)
		base := compileT(t, name, Baseline)
		if got := inc.Layout.ByteSize(); got != want.dv {
			t.Errorf("%s ΔV state = %dB, want %dB", name, got, want.dv)
		}
		if got := base.Layout.ByteSize(); got != want.dvStar {
			t.Errorf("%s ΔV★ state = %dB, want %dB", name, got, want.dvStar)
		}
		if inc.Layout.ByteSize() < base.Layout.ByteSize() {
			t.Errorf("%s: incremental state smaller than baseline", name)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
		mode               Mode
	}{
		{
			name: "weighted-multiplicative",
			src: `init { local w : float = 1.0 };
step { w = * [ u.w + ew | u <- #in ] }`,
			wantSub: "may not use ew",
			mode:    Incremental,
		},
		{
			name: "int-product",
			src: `init { local w : int = 2 };
step { w = * [ u.w | u <- #in ] }`,
			wantSub: "requires a float body",
			mode:    Incremental,
		},
		{
			name:    "type-error-propagates",
			src:     `init { local w : float = true };step { w = 1.0 }`,
			wantSub: "initialized with",
			mode:    Incremental,
		},
		{
			name:    "parse-error-propagates",
			src:     `init { local w : float = };step { w = 1.0 }`,
			wantSub: "syntax",
			mode:    Incremental,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, Options{Mode: tc.mode})
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
	// A negative slop would make every float changed at every call, a NaN
	// one no float ever.
	for _, eps := range []float64{-1, math.NaN()} {
		if _, err := Compile(programs.MustSource("sssp"), Options{Epsilon: eps}); err == nil || !strings.Contains(err.Error(), "ε") {
			t.Errorf("ε = %g: err = %v, want the slop refused", eps, err)
		}
	}
	// int product in Baseline mode is scratch and therefore fine.
	if _, err := Compile(`init { local w : int = 2 };
step { w = * [ u.w | u <- #in ] }`, Options{Mode: Baseline}); err != nil {
		t.Fatalf("baseline int product should compile: %v", err)
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	srcProg, err := Compile(programs.MustSource("pagerank"), Options{Mode: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	before := ast.Print(srcProg.Source)
	if _, err := CompileAST(srcProg.Source, Options{Mode: Baseline}); err != nil {
		t.Fatal(err)
	}
	if after := ast.Print(srcProg.Source); after != before {
		t.Fatalf("CompileAST mutated its input:\n%s\nvs\n%s", before, after)
	}
}

func TestUsageFlags(t *testing.T) {
	if p := compileT(t, "cc", Incremental); !p.UsesNeighbors {
		t.Fatal("cc must use #neighbors")
	}
	p := compileT(t, "hits", Incremental)
	if !p.UsesIn || !p.UsesOut {
		t.Fatalf("hits flags = in:%v out:%v, want both", p.UsesIn, p.UsesOut)
	}
}

func TestParamSpecs(t *testing.T) {
	p := compileT(t, "sssp", Incremental)
	if len(p.Params) != 1 || p.Params[0].Name != "src" || p.Params[0].Default != 0 {
		t.Fatalf("params = %+v", p.Params)
	}
	if p.Params[0].Type != types.Int {
		t.Fatalf("param type = %v", p.Params[0].Type)
	}
}

func TestProgramString(t *testing.T) {
	p := compileT(t, "pagerank", Incremental)
	s := p.String()
	for _, want := range []string{"mode: dV", "state (48 bytes)", "group 0", "site 0", "phase 0 (iter i)", "until: i >= 30"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Program.String missing %q:\n%s", want, s)
		}
	}
}

// ---------------------------------------------------------------------------
// Algebra properties (Eq. 11): for every invertible ⊞, applying the
// synthesized Δ to the memoized accumulator equals re-aggregating with the
// new value.

func TestDeltaEquationSum(t *testing.T) {
	f := func(acc, m, m2 float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		acc, m, m2 = clamp(acc), clamp(m), clamp(m2)
		// x ⊞ m' vs (x ⊞ m) ⊞ Δ with Δ = m' − m.
		lhs := acc + m2
		rhs := (acc + m) + (m2 - m)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaEquationProd(t *testing.T) {
	f := func(acc, m, m2 float64) bool {
		clamp := func(x float64) float64 {
			x = math.Mod(x, 1000)
			if math.Abs(x) < 1e-3 || math.IsNaN(x) {
				return 1
			}
			return x
		}
		acc, m, m2 = clamp(acc), clamp(m), clamp(m2)
		lhs := acc * m2
		rhs := (acc * m) * (m2 / m)
		return math.Abs(lhs-rhs) <= 1e-6*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaEquationMinMonotone(t *testing.T) {
	// For min under monotone updates (m' <= m), the new value is its own Δ.
	f := func(acc, m, drop float64) bool {
		if math.IsNaN(acc) || math.IsNaN(m) || math.IsNaN(drop) {
			return true
		}
		m2 := m - math.Abs(drop)
		lhs := math.Min(acc, m2)
		rhs := math.Min(math.Min(acc, m), m2)
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityAndAbsorbingTables(t *testing.T) {
	ops := []ast.AggOp{ast.AggSum, ast.AggProd, ast.AggMin, ast.AggMax, ast.AggOr, ast.AggAnd}
	for _, op := range ops {
		id := Identity(op)
		for _, x := range []float64{0, 1, -3.5, 42} {
			if op == ast.AggOr || op == ast.AggAnd {
				if x != 0 && x != 1 {
					continue
				}
			}
			if got := Apply(op, id, x); got != x {
				t.Errorf("%v: identity ⊞ %v = %v, want %v", op, x, got, x)
			}
		}
		if abs, ok := Absorbing(op); ok {
			for _, x := range []float64{0, 1} {
				if got := Apply(op, abs, x); got != abs {
					t.Errorf("%v: absorbing ⊞ %v = %v, want %v", op, x, got, abs)
				}
			}
			if !op.Multiplicative() {
				t.Errorf("%v has an absorbing element but is not multiplicative", op)
			}
		}
	}
	if Identity(ast.AggMin) != math.Inf(1) || Identity(ast.AggMax) != math.Inf(-1) {
		t.Fatal("min/max identities must be ±∞")
	}
}

func TestIterBodyReadingCounterDisablesHalts(t *testing.T) {
	p := compileT(t, "prod", Incremental) // prod.dv reads k in its body
	if p.Phases[0].Halts {
		t.Fatal("iteration-dependent body must not halt by default")
	}
	p2 := compileT(t, "pagerank", Incremental) // body does not read i
	if !p2.Phases[0].Halts {
		t.Fatal("pagerank must halt by default")
	}
}
