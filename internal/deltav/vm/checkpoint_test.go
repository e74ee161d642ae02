package vm

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// Crash-resume equivalence for compiled ΔV programs: the machine state
// (flat state matrix, memo tables, master phase machine) rides in the
// snapshot's Extra payload, so a resumed run must be indistinguishable from
// the uninterrupted one — bitwise-identical final fields, same remaining
// supersteps, same per-phase iteration counts.
//
// Table folds run in sorted sender order, so memo-table runs are bitwise
// reproducible like the other modes; the sssp memo-table case pins that
// through the snapshot round-trip.
func TestDeltaVCheckpointResumeEquivalence(t *testing.T) {
	g := directedTestGraph()
	cases := []struct {
		program string
		mode    core.Mode
		field   string
		params  map[string]float64
	}{
		{"pagerank", core.Incremental, "vl", nil},
		{"sssp", core.MemoTable, "dist", map[string]float64{"src": 5}},
		{"cc", core.Incremental, "cid", nil},
		{"twophase", core.Incremental, "t", nil},
	}
	scheds := map[string]pregel.Scheduler{
		"scan-all":   pregel.ScanAll,
		"work-queue": pregel.WorkQueue,
	}
	for _, tc := range cases {
		for schedName, sched := range scheds {
			tc, sched := tc, sched
			t.Run(tc.program+"/"+tc.mode.String()+"/"+schedName, func(t *testing.T) {
				gr := g
				if tc.program == "cc" {
					gr = graph.PreferentialAttachment(150, 2, 5)
				}
				prog := compileT(t, tc.program, tc.mode)
				base := RunOptions{Workers: 4, Scheduler: sched, Params: tc.params}

				dir := t.TempDir()
				full := base
				full.Checkpoint = pregel.CheckpointOptions{Every: 1, Dir: dir}
				fullRes, err := Run(prog, gr, full)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fullRes.FieldVector(tc.field)
				if err != nil {
					t.Fatal(err)
				}
				S := fullRes.Stats.Supersteps
				if S < 3 {
					t.Fatalf("full run too short: %d supersteps", S)
				}
				for k := 0; k < S; k++ {
					snap, err := pregel.ReadSnapshotFile(filepath.Join(dir, pregel.SnapshotFileName(k)))
					if err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
					out, err := ResumeContext(context.Background(), compileT(t, tc.program, tc.mode), gr, base, snap)
					if err != nil {
						t.Fatalf("k=%d: resume: %v", k, err)
					}
					if got, wantLeft := out.Stats.Supersteps, S-(k+1); got != wantLeft {
						t.Errorf("k=%d: resumed run took %d supersteps, want %d", k, got, wantLeft)
					}
					got, err := out.FieldVector(tc.field)
					if err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
					for u := range want {
						if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
							t.Fatalf("k=%d: %s[%d] = %g (%x), want %g (%x)",
								k, tc.field, u, got[u], math.Float64bits(got[u]), want[u], math.Float64bits(want[u]))
						}
					}
					for i := range fullRes.Iterations {
						if out.Iterations[i] != fullRes.Iterations[i] {
							t.Errorf("k=%d: phase %d ran %d iterations, want %d",
								k, i, out.Iterations[i], fullRes.Iterations[i])
						}
					}
				}
			})
		}
	}
}

// TestDeltaVResumeRejectsWrongProgram checks the Extra payload validation:
// a snapshot from one program/mode cannot resume a machine compiled for
// another shape.
func TestDeltaVResumeRejectsWrongProgram(t *testing.T) {
	g := directedTestGraph()
	dir := t.TempDir()
	opts := RunOptions{Workers: 2, Checkpoint: pregel.CheckpointOptions{Every: 1, Dir: dir}}
	if _, err := Run(compileT(t, "pagerank", core.Incremental), g, opts); err != nil {
		t.Fatal(err)
	}
	snap, err := pregel.ReadSnapshotFile(filepath.Join(dir, pregel.SnapshotFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Different layout (state width) → the machine payload must refuse.
	resume := func(prog *core.Program, snap *pregel.Snapshot) error {
		_, err := ResumeContext(context.Background(), prog, g, RunOptions{Workers: 2}, snap)
		return err
	}
	if resume(compileT(t, "sssp", core.Incremental), snap) == nil {
		t.Fatal("sssp machine resumed a pagerank snapshot")
	}
	// Memo-table mode expects table payloads the dv snapshot lacks.
	if resume(compileT(t, "pagerank", core.MemoTable), snap) == nil {
		t.Fatal("memo-table machine resumed an incremental snapshot")
	}
	// Empty Extra (engine-only snapshot) must be rejected too.
	bare := *snap
	bare.Extra = nil
	if resume(compileT(t, "pagerank", core.Incremental), &bare) == nil {
		t.Fatal("machine resumed a snapshot with no Extra payload")
	}
}

// FuzzDeltaVExtraDecode: arbitrary Extra payloads must produce errors, not
// panics or corrupt machines.
func FuzzDeltaVExtraDecode(f *testing.F) {
	g := graph.Path(8, true)
	prog := mustCompile("pagerank", core.Incremental)
	m, err := NewMachine(prog, g, RunOptions{})
	if err != nil {
		f.Fatal(err)
	}
	valid := m.encodeExtra(nil, &globals{Phase: 0, Mode: modeBody, Iter: 2})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		mm, err := NewMachine(mustCompile("pagerank", core.Incremental), g, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gl, err := mm.restoreExtra(b, g.NumVertices())
		if err == nil && gl == nil {
			t.Fatal("restoreExtra returned neither globals nor error")
		}
	})
}
