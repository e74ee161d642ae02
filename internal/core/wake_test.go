package core

import (
	"fmt"
	"strings"
	"testing"
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
