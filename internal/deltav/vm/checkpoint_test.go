package vm

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"runtime"
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
		if err != nil && !errors.Is(err, pregel.ErrSnapshotCorrupt) && !errors.Is(err, pregel.ErrSnapshotMismatch) {
			t.Fatalf("rejection wraps neither ErrSnapshotCorrupt nor ErrSnapshotMismatch: %v", err)
		}
	})
}

// TestRestoreExtraRejectionsTyped: every way restoreExtra refuses a payload
// wraps ErrSnapshotCorrupt when the bytes are damaged and
// ErrSnapshotMismatch when they are whole but belong to another program or
// graph — never an untyped error, never both.
func TestRestoreExtraRejectionsTyped(t *testing.T) {
	g := graph.Path(8, true)
	n := g.NumVertices()
	pagerank := mustCompile("pagerank", core.Incremental)
	memo := mustCompile("sssp", core.MemoTable)
	m, err := NewMachine(pagerank, g, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	valid := m.encodeExtra(nil, &globals{Phase: 0, Mode: modeBody, Iter: 2})
	res, err := Run(memo, g, RunOptions{Workers: 1, Params: map[string]float64{"src": 0}})
	if err != nil {
		t.Fatal(err)
	}
	validMemo := res.machine.encodeExtra(nil, res.endGlobals)

	// Byte offsets of the payload's fields (see encodeExtra).
	const phaseAt, modeAt, nIterAt = 8, 16, 40
	nStateAt := 48 + 8*len(m.iterations)
	flagAt := nStateAt + 8 + 8*len(m.state)
	memoFlagAt := 48 + 8*len(res.machine.iterations) + 8 + 8*len(res.machine.state)
	sitesAt, vertsAt, sizeAt := memoFlagAt+1, memoFlagAt+9, memoFlagAt+17
	keyAt := -1 // the first memo key: the first table with an entry
	for at, u := sizeAt, 0; u < n; u++ {
		entries := int(binary.LittleEndian.Uint64(validMemo[at:]))
		if entries > 0 {
			keyAt = at + 8
			break
		}
		at += 8 + 16*entries
	}
	if keyAt < 0 {
		t.Fatal("the memo-table run cached nothing")
	}
	set := func(b []byte, at int, v int64) []byte {
		c := append([]byte(nil), b...)
		binary.LittleEndian.PutUint64(c[at:], uint64(v))
		return c
	}
	setByte := func(b []byte, at int, v byte) []byte {
		c := append([]byte(nil), b...)
		c[at] = v
		return c
	}
	corrupt, mismatch := pregel.ErrSnapshotCorrupt, pregel.ErrSnapshotMismatch
	for _, tc := range []struct {
		name string
		prog *core.Program
		b    []byte
		oldN int
		want error
	}{
		{"empty", pagerank, nil, n, corrupt},
		{"truncated header", pagerank, valid[:20], n, corrupt},
		{"snapshot covers more vertices than the graph", pagerank, valid, n + 1, mismatch},
		{"version", pagerank, set(valid, 0, extraVersion+1), n, corrupt},
		{"phase out of range", pagerank, set(valid, phaseAt, 99), n, mismatch},
		{"unknown mode", pagerank, set(valid, modeAt, 7), n, corrupt},
		{"phase counter count", pagerank, set(valid, nIterAt, int64(len(m.iterations)+1)), n, mismatch},
		{"state size", pagerank, set(valid, nStateAt, int64(len(m.state)+1)), n, mismatch},
		{"another program's state", mustCompile("sssp", core.Incremental), valid, n, mismatch},
		{"truncated state", pagerank, valid[:nStateAt+16], n, corrupt},
		{"missing memo-table flag", pagerank, valid[:flagAt], n, corrupt},
		{"memo-table flag 2", pagerank, setByte(valid, flagAt, 2), n, corrupt},
		{"memo tables for a program without", pagerank, setByte(valid, flagAt, 1), n, mismatch},
		{"no memo tables for a program with", memo, setByte(validMemo, memoFlagAt, 0), n, mismatch},
		{"memo-table site count", memo, set(validMemo, sitesAt, 99), n, mismatch},
		{"memo tables for other vertices", memo, set(validMemo, vertsAt, int64(n+1)), n, mismatch},
		{"memo table size", memo, set(validMemo, sizeAt, int64(n+1)), n, corrupt},
		{"memo key out of range", memo, set(validMemo, keyAt, int64(n)), n, corrupt},
		{"truncated memo table", memo, validMemo[:len(validMemo)-4], n, corrupt},
		{"trailing byte", pagerank, append(append([]byte(nil), valid...), 0), n, corrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mm, err := NewMachine(tc.prog, g, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = mm.restoreExtra(tc.b, tc.oldN)
			other := mismatch
			if tc.want == mismatch {
				other = corrupt
			}
			if !errors.Is(err, tc.want) || errors.Is(err, other) {
				t.Fatalf("err = %v, want %v alone", err, tc.want)
			}
		})
	}
	for name, tc := range map[string]struct {
		prog *core.Program
		b    []byte
	}{"dv": {pagerank, valid}, "memotable": {memo, validMemo}} {
		mm, err := NewMachine(tc.prog, g, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mm.restoreExtra(tc.b, n); err != nil {
			t.Fatalf("%s: the untouched payload is refused: %v", name, err)
		}
	}
}

// TestForgedMemoCountAllocatesNothing: a memo-table entry count is checked
// against the bytes left in the payload before anything is sized by it, so
// a payload cut off after one forged count is refused without first
// allocating a table for every vertex of the graph.
func TestForgedMemoCountAllocatesNothing(t *testing.T) {
	const n = 1 << 16
	g := graph.Star(n, true)
	m, err := NewMachine(mustCompile("sssp", core.MemoTable), g, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := m.encodeExtra(nil, &globals{Phase: 0, Mode: modeBody})
	// The first vertex's table size follows the memo-table flag, the site
	// count and the vertex count (see encodeExtra).
	sizeAt := 48 + 8*len(m.iterations) + 8 + 8*len(m.state) + 17
	forged := binary.LittleEndian.AppendUint64(payload[:sizeAt:sizeAt], n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = m.restoreExtra(forged, n)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, pregel.ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("refusing a forged memo-table count allocated %d bytes", alloc)
	}
}
