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
					out, err := ResumeContext(context.Background(), compileT(t, tc.program, tc.mode), gr, base, snapshotAt(t, dir, k))
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
	snap := snapshotAt(t, dir, 1)
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

// midRunSnapshots runs prog with a snapshot at every barrier and returns
// the run and its snapshots, in superstep order.
func midRunSnapshots(t *testing.T, m *Machine, g *graph.Graph, opts RunOptions) (*Result, []*pregel.Snapshot) {
	t.Helper()
	dir := t.TempDir()
	opts.Checkpoint = pregel.CheckpointOptions{Every: 1, Dir: dir}
	res, err := m.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]*pregel.Snapshot, res.Stats.Supersteps)
	for k := range snaps {
		snaps[k] = snapshotAt(t, dir, k)
	}
	return res, snaps
}

// snapshotAt loads the chain in dir through record k, which a run that
// checkpoints every barrier into a fresh directory commits at superstep k.
func snapshotAt(t testing.TB, dir string, k int) *pregel.Snapshot {
	t.Helper()
	st, err := pregel.LoadChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := loadChainT(t, filepath.Join(dir, st.Entries[k].Name))
	if s.Superstep != k {
		t.Fatalf("record %d of %s is superstep %d", k, dir, s.Superstep)
	}
	return s
}

// loadChainT loads the chain through path, a chain directory or one of its
// records, and returns the snapshot it reconstructs.
func loadChainT(t testing.TB, path string) *pregel.Snapshot {
	t.Helper()
	st, err := pregel.LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Snapshot
}

// resumeMatches resumes snap and requires every field bit-identical to want.
func resumeMatches(t *testing.T, prog *core.Program, g *graph.Graph, opts RunOptions, snap *pregel.Snapshot, want *Result) {
	t.Helper()
	out, err := ResumeContext(context.Background(), prog, g, opts, snap)
	if err != nil {
		t.Fatalf("superstep %d: resume: %v", snap.Superstep, err)
	}
	for _, f := range prog.Layout.Fields {
		got, _ := out.FieldVector(f.Name)
		exp, _ := want.FieldVector(f.Name)
		for u := range exp {
			if math.Float64bits(got[u]) != math.Float64bits(exp[u]) {
				t.Fatalf("superstep %d: %s[%d] = %g, want %g", snap.Superstep, f.Name, u, got[u], exp[u])
			}
		}
	}
}

// TestMessageRecordRejectionsTyped: an inbox record a program cannot have
// sent — a group it does not have, another slot count, a tag on a slot
// that carries none, a value past its width — is refused with
// ErrSnapshotCorrupt instead of being dropped by the receive loop. HITS
// runs at Msg[P] with two groups, PageRank at bare float64. Shard frames
// decode with the same codec, so a peer's record is refused the same way.
func TestMessageRecordRejectionsTyped(t *testing.T) {
	g := directedTestGraph()
	opts := RunOptions{Workers: 2}
	for _, name := range []string{"hits", "pagerank"} {
		t.Run(name, func(t *testing.T) {
			prog := compileT(t, name, core.Incremental)
			m, err := NewMachine(prog, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			full, snaps := midRunSnapshots(t, m, g, opts)
			snap := snaps[1]
			if len(snap.Inbox) < 40 {
				t.Fatal("the superstep-1 snapshot holds no message")
			}
			resumeMatches(t, prog, g, opts, snap, full)
			for _, tc := range []struct {
				name   string
				at     int
				forged byte
			}{
				{"group 9", 0, 9},
				{"slot count 2", 1, 2},
				{"nullary tag", 2, 1},
				{"previous-nullary tag", 3, 1},
				{"value past the width", 8 + 8*3 + 7, 0x3f},
			} {
				forged := *snap
				forged.Inbox = append([]byte(nil), snap.Inbox...)
				forged.Inbox[tc.at] = tc.forged
				_, err := ResumeContext(context.Background(), prog, g, opts, &forged)
				if !errors.Is(err, pregel.ErrSnapshotCorrupt) {
					t.Errorf("%s: resume err = %v, want ErrSnapshotCorrupt", tc.name, err)
				}
			}
		})
	}
}

// TestParentRecordsResumeOnBarePath: before bare messages, every record of
// a one-group program carried its envelope's first sender. A snapshot
// written that way — here by the same program forced onto Msg[[1]float64] —
// resumes on the bare path bit-identical to the uninterrupted run, and the
// forced run computes exactly what the bare one does.
func TestParentRecordsResumeOnBarePath(t *testing.T) {
	g := directedTestGraph()
	for _, tc := range []struct {
		name   string
		params map[string]float64
	}{{"pagerank", nil}, {"sssp", map[string]float64{"src": 5}}} {
		t.Run(tc.name, func(t *testing.T) {
			prog := compileT(t, tc.name, core.Incremental)
			opts := RunOptions{Workers: 3, Params: tc.params, Combine: true}
			bare, err := Run(prog, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(prog, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := m.x.(*exec[float64]); !ok {
				t.Fatal("program does not run at bare messages")
			}
			rows := groupRows(m)
			m.x = newExec[Msg[[1]float64]](m, wideKind[[1]float64]{rows}, rows)
			wide, snaps := midRunSnapshots(t, m, g, opts)
			if wide.Stats.MessagesSent != bare.Stats.MessagesSent || wide.Stats.CombinedMessages != bare.Stats.CombinedMessages {
				t.Fatalf("wide run sent %d/%d messages, bare %d/%d", wide.Stats.MessagesSent,
					wide.Stats.CombinedMessages, bare.Stats.MessagesSent, bare.Stats.CombinedMessages)
			}
			senders := 0
			for _, snap := range snaps {
				for at := 4; at < len(snap.Inbox); at += 40 {
					if binary.LittleEndian.Uint32(snap.Inbox[at:]) != 0 {
						senders++
					}
				}
				resumeMatches(t, prog, g, opts, snap, bare)
			}
			if senders == 0 {
				t.Fatal("no snapshot record carries a sender")
			}
		})
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
