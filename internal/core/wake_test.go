package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/programs"
)

// TestWakeProof pins the wake-freedom verdict, and the guard or the
// blocking read dvc prints, for bodies that exercise each rule.
func TestWakeProof(t *testing.T) {
	for _, tc := range []struct {
		decls, body, want string
	}{
		// f = f ⊞ acc at ⊞'s identity, with the change check that follows.
		{"local d : float = 1.0", "let m : float = min [ u.d | u <- #in ] in d = min d m",
			"wakes only the vertices the prime's messages reach; the prime halts a vertex only if d == d"},
		// A bool field: f || false is f only for 0 and 1.
		{"local r : bool = id == 0", "let a : bool = || [ u.r | u <- #in ] in r = r || a",
			"wakes only the vertices the prime's messages reach; the prime halts a vertex only if same(r || 0, r) && r == r"},
		// A branch whose arms agree is no obstacle.
		{"local d : float = 1.0", "let m : float = min [ u.d | u <- #in ] in d = if id == 0 then min d m else d",
			"wakes only the vertices the prime's messages reach; the prime halts a vertex only if d == d"},
		// && over no messages is true, so ok becomes true.
		{"local ok : bool = id == 0", "let a : bool = && [ u.ok | u <- #in ] in ok = ok || a",
			"wakes every vertex: ok becomes 1"},
		// A value recomputed from the accumulator.
		{"local x : float = 1.0", "let s : float = + [ u.x | u <- #in ] in x = 0.5 * s",
			"wakes every vertex: x becomes 0"},
		{"local x : float = 1.0", "let m : float = max [ u.x | u <- #in ] in x = max x (m / graphSize)",
			"wakes every vertex: x depends on |V|"},
		{"local x : float = 1.0", "let m : float = max [ u.x | u <- #in ] in x = if id == 0 then max x m else 2.0",
			"wakes every vertex: x depends on the vertex id"},
		// Without a halt (P6 declined) the proof does not apply.
		{"local x : float = 1.0", "let m : float = min [ u.x | u <- #in ] in x = min x (m + 1.0 * k)",
			"wakes every vertex: the body does not halt"},
	} {
		src := fmt.Sprintf("init { %s };\niter k { %s } until { k >= 5 }", tc.decls, tc.body)
		p, err := Compile(src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := p.WakeString(0); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.body, got, tc.want)
		}
		if p.Phases[0].Quiet != strings.HasPrefix(tc.want, "wakes only") {
			t.Errorf("%s: Quiet = %v", tc.body, p.Phases[0].Quiet)
		}
	}
}

// TestStartProof pins the start verdict dvc prints for every corpus
// program, and for bodies that exercise each rule of the start proof.
func TestStartProof(t *testing.T) {
	prime := func(what string) string { return "every vertex runs init: the prime " + what }
	corpus := map[string]string{
		"sssp":      "id == src runs init; every other vertex starts halted at dist = ∞, $old_g0_dist = ∞, $dirty_g0 = 0, $acc_s0 = ∞ (while every weight is finite)",
		"bfs":       "id == src runs init; every other vertex starts halted at hop = ∞, $old_g0_hop = ∞, $dirty_g0 = 0, $acc_s0 = ∞",
		"reach":     "id == src runs init; every other vertex starts halted at reach = 0, $old_g0_reach = 0, $dirty_g0 = 0, $acc_s0 = 0, $nn_s0 = 0, $nulls_s0 = 0",
		"allreach":  prime("sends group 0: 0 is not &&'s identity"), // its absorbing element: a nullary tag
		"cc":        prime("may send group 0: its value depends on the vertex id"),
		"wcc":       prime("may send group 0: its value depends on the vertex id"),
		"maxval":    prime("may send group 0: its value depends on the vertex id"),
		"twophase":  prime("may send group 0: its value depends on the vertex id"),
		"prod":      prime("may send group 0: its value depends on the vertex id"),
		"degreesum": prime("may send group 0: its value depends on a degree"),
		"pagerank":  prime("may send group 0: its value depends on a degree"),
		"hits":      prime("sends group 0: 1 is not +'s identity"),
	}
	for _, name := range programs.Names() {
		want, ok := corpus[name]
		if !ok {
			t.Errorf("%s: no verdict pinned", name)
		}
		p, err := Compile(programs.MustSource(name), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.StartString(); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		// A lookup table records every sender's value, identity or not.
		if p, _ = Compile(programs.MustSource(name), Options{Mode: MemoTable}); p.Start.Row != nil {
			t.Errorf("%s/dV-memotable: a template row", name)
		}
	}
	for _, tc := range []struct{ init, want string }{
		// A constant key, and two keys from a short-circuit ||.
		{"local d : float = if id == 3 then 0.0 else infty",
			"id == 3 runs init; every other vertex starts halted at d = ∞, $old_g0_d = ∞, $dirty_g0 = 0, $acc_s0 = ∞"},
		{"local d : float = if id == 0 || id == src then 0.0 else infty",
			"id == 0 or id == src runs init; every other vertex starts halted at d = ∞, $old_g0_d = ∞, $dirty_g0 = 0, $acc_s0 = ∞"},
		// id != k folds to true; no key at all leaves every vertex alike.
		{"local d : float = if id != src then infty else 0.0",
			"id == src runs init; every other vertex starts halted at d = ∞, $old_g0_d = ∞, $dirty_g0 = 0, $acc_s0 = ∞"},
		{"local d : float = infty",
			"every vertex starts halted at d = ∞, $old_g0_d = ∞, $dirty_g0 = 0, $acc_s0 = ∞"},
		// A parameter, |V| or the id read as a value blocks the proof.
		{"local d : float = if id == src then 0.0 else 1.0 * src",
			"every vertex runs init: the prime may send group 0: its value depends on the parameter src"},
		{"local d : float = 1.0 * graphSize",
			"every vertex runs init: the prime may send group 0: its value depends on |V|"},
		{"local d : float = if id == src + 1 then 0.0 else infty",
			"every vertex runs init: the prime may send group 0: its value depends on the vertex id"},
		{"local d : float = 0.5",
			"every vertex runs init: the prime sends group 0: 1.5 is not min's identity"},
	} {
		src := "param src : int = 0;\ninit { " + tc.init + " };\niter k { let m : float = min [ u.d + 1.0 | u <- #in ] in d = min d m } until { fixpoint }"
		p, err := Compile(src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.init, err)
		}
		if got := p.StartString(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.init, got, tc.want)
		}
	}
}
