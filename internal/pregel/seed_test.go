package pregel

import (
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestSeedValidation is every start the single seed function must refuse,
// for both kinds of seed: the rows that used to be split between the
// resume and warm-start validation tests, plus the decode failures
// (truncated values, out-of-range queue entry) neither covered.
func TestSeedValidation(t *testing.T) {
	g := graph.Path(10, true)
	done, _, _ := terminalSnapshot(t, g, ScanAll)

	// Mid-run snapshots of the same program: not Done, with in-flight
	// messages, one per scheduler.
	midOf := func(sched Scheduler) *Snapshot {
		dir := t.TempDir()
		e := New[wsVal, float64](g, Options{
			Workers:    2,
			Scheduler:  sched,
			Checkpoint: CheckpointOptions{Every: 1, Dir: dir},
		})
		if _, err := e.Run(wsProgram{}); err != nil {
			t.Fatal(err)
		}
		mid := chainSnapshot(t, recordAt(t, dir, 2))
		if mid.Done {
			t.Fatal("superstep-2 snapshot unexpectedly Done")
		}
		return mid
	}
	mid, midQueue := midOf(ScanAll), midOf(WorkQueue)
	var inflight int
	for i := 0; i < len(mid.inboxCounts); i += 4 {
		inflight += int(binary.LittleEndian.Uint32(mid.inboxCounts[i:]))
	}
	if queued := len(midQueue.queue)/4 - 1; inflight == 0 || queued == 0 {
		t.Fatalf("mid-run snapshots carry %d in-flight messages and %d queued vertices; the rows below need both", inflight, queued)
	}
	// edit returns a shallow copy of s with one doctored field.
	edit := func(s *Snapshot, f func(*Snapshot)) *Snapshot {
		c := *s
		f(&c)
		return &c
	}

	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		sched Scheduler
		aggs  int // extra aggregators the run registers
		seed  *Seed
		is    error    // errors.Is target
		says  []string // substrings the message must carry
	}{
		{name: "continue: nil snapshot", seed: Continue(nil), says: []string{"needs a snapshot"}},
		{name: "warm: nil snapshot", seed: Warm(nil, nil, 0, false), says: []string{"needs a snapshot"}},
		{name: "continue: wrong graph", g: graph.Cycle(10, true), is: ErrSnapshotMismatch, seed: Continue(mid)},
		{name: "warm: wrong expected fingerprint", is: ErrSnapshotMismatch, seed: Warm(done, nil, 12345, false)},
		{name: "continue: wrong vertex count", g: graph.Path(11, true), is: ErrSnapshotMismatch,
			seed: Continue(edit(mid, func(s *Snapshot) { s.Fingerprint = graph.Path(11, true).Fingerprint() }))},
		// A grown graph (delta added vertices, caller fed the old snapshot)
		// must be named precisely — added-vertex count plus the remedy — not
		// surface as a generic size or decode failure.
		{name: "warm: grown graph without growth", g: graph.Path(12, true), is: ErrSnapshotMismatch,
			seed: Warm(done, nil, 0, false), says: []string{"gained 2 vertices", "rerun from scratch"}},
		{name: "warm: shrunk graph", g: graph.Path(9, true), is: ErrSnapshotMismatch, seed: Warm(done, nil, 0, true)},
		{name: "continue: aggregator count", aggs: 1, is: ErrSnapshotMismatch, seed: Continue(mid)},
		{name: "warm: aggregator count", aggs: 1, is: ErrSnapshotMismatch, seed: Warm(done, nil, 0, false)},
		// A ScanAll snapshot carries no work queue; continuing it under
		// WorkQueue would silently run nothing, so it must be refused.
		{name: "continue: wrong scheduler", sched: WorkQueue, is: ErrSnapshotMismatch, seed: Continue(mid)},
		{name: "warm: not Done", is: ErrSnapshotMismatch, seed: Warm(mid, nil, 0, false)},
		// Quiescent-looking but in flight: only the inbox check can catch it.
		{name: "warm: not quiescent", is: ErrSnapshotMismatch, says: []string{"not quiescent"},
			seed: Warm(edit(mid, func(s *Snapshot) { s.Done = true }), nil, 0, false)},
		{name: "continue: bitset size", is: ErrSnapshotCorrupt,
			seed: Continue(edit(mid, func(s *Snapshot) { s.active = s.active[:1] }))},
		// Vertex 15 of 10: a bit no encoder writes.
		{name: "warm: bitset padding", is: ErrSnapshotCorrupt, says: []string{"past vertex 9"},
			seed: Warm(edit(done, func(s *Snapshot) { s.removed = []byte{s.removed[0], s.removed[1] | 0x80} }), nil, 0, false)},
		{name: "continue: truncated values", says: []string{"snapshot value 9"},
			seed: Continue(edit(mid, func(s *Snapshot) { s.Values = s.Values[:len(s.Values)-1] }))},
		{name: "warm: truncated values", says: []string{"snapshot value 9"},
			seed: Warm(edit(done, func(s *Snapshot) { s.Values = s.Values[:len(s.Values)-1] }), nil, 0, false)},
		{name: "warm: trailing values", is: ErrSnapshotCorrupt,
			seed: Warm(edit(done, func(s *Snapshot) { s.Values = append(s.Values[:len(s.Values):len(s.Values)], 0) }), nil, 0, false)},
		{name: "continue: truncated inbox", says: []string{"snapshot inbox"},
			seed: Continue(edit(mid, func(s *Snapshot) { s.Inbox = s.Inbox[:len(s.Inbox)-1] }))},
		{name: "warm: frontier vertex out of range", is: ErrSnapshotMismatch, says: []string{"activates vertex 99"},
			seed: Warm(done, []VertexID{99}, 0, false)},
		{name: "continue: queued vertex out of range", sched: WorkQueue, is: ErrSnapshotCorrupt, says: []string{"queued vertex 99"},
			seed: Continue(edit(midQueue, func(s *Snapshot) {
				s.queue = binary.LittleEndian.AppendUint32(slices.Clone(s.queue), 99)
				binary.LittleEndian.PutUint32(s.queue, uint32(len(s.queue)/4-1))
			}))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on := tc.g
			if on == nil {
				on = g
			}
			e := New[wsVal, float64](on, Options{Workers: 2, Scheduler: tc.sched, Seed: tc.seed})
			for i := 0; i < tc.aggs; i++ {
				if _, err := e.RegisterAggregator("extra", AggSum, false); err != nil {
					t.Fatal(err)
				}
			}
			_, err := e.Run(wsProgram{})
			if err == nil {
				t.Fatal("seed accepted")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("err = %v, want %v", err, tc.is)
			}
			for _, want := range tc.says {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %v, want it to say %q", err, want)
				}
			}
		})
	}
}
