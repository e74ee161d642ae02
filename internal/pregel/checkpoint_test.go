package pregel

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// ckptProgram is built to exercise every piece of snapshotted state: vertex
// values mutate every superstep from multi-message inboxes (no combiner, so
// per-vertex delivery order matters for the float sums), vertices halt and
// are rewoken by messages, one vertex removes itself mid-run, and both a
// persistent and a non-persistent aggregator accumulate.
type ckptVal struct {
	X float64
	N int64
}

type ckptProgram struct{ rounds int }

// The ids ckptProgram's two aggregators get: every engine that runs it
// registers "total" first and "peak" second.
const (
	ckptTotal = iota
	ckptPeak
)

func (p ckptProgram) Init(ctx *Context[ckptVal, float64]) {
	ctx.Value().X = float64(ctx.ID()) + 1
	ctx.BroadcastOut(ctx.Value().X)
	if ctx.ID()%3 == 0 {
		ctx.VoteToHalt() // rewoken by any message
	}
}

func (p ckptProgram) Compute(ctx *Context[ckptVal, float64], msgs []float64) {
	v := ctx.Value()
	for _, m := range msgs {
		v.X += m / float64(ctx.Superstep())
	}
	v.N++
	ctx.Aggregate(ckptTotal, 1)
	ctx.Aggregate(ckptPeak, v.X)
	if ctx.ID() == 7 && ctx.Superstep() == 3 {
		ctx.RemoveSelf()
		return
	}
	if ctx.Superstep() < p.rounds {
		ctx.BroadcastOut(v.X / 16)
	}
	ctx.VoteToHalt()
}

// newCkptEngine builds the engine/program pair the equivalence tests run.
func newCkptEngine(g *graph.Graph, sched Scheduler, seed *Seed, dir string, every int) *Engine[ckptVal, float64] {
	e := New[ckptVal, float64](g, Options{
		Workers:   4,
		Scheduler: sched,
		Seed:      seed,
		Checkpoint: CheckpointOptions{
			Every: every,
			Dir:   dir,
		},
	})
	if _, err := e.RegisterAggregator("total", AggSum, true); err != nil {
		panic(err)
	}
	if _, err := e.RegisterAggregator("peak", AggMax, false); err != nil {
		panic(err)
	}
	e.SetMasterHook(func(mc *MasterContext) {
		if mc.AggValue("total") > 400 {
			mc.Stop()
		}
	})
	return e
}

// TestCheckpointResumeEquivalence is the engine-level crash-resume suite:
// run to completion with a checkpoint at every barrier, then resume from
// every superstep-k snapshot and require bitwise-identical final values,
// identical remaining-superstep counts, and identical aggregator state —
// under both schedulers.
func TestCheckpointResumeEquivalence(t *testing.T) {
	g := graph.ErdosRenyi(60, 240, true, 7)
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		t.Run(schedName(sched), func(t *testing.T) {
			dir := t.TempDir()
			full := newCkptEngine(g, sched, nil, dir, 1)
			fullStats, err := full.Run(ckptProgram{rounds: 8})
			if err != nil {
				t.Fatal(err)
			}
			want := append([]ckptVal(nil), full.Values()...)
			wantPeak := full.AggregatorValue("peak")
			wantTotal := full.AggregatorValue("total")
			S := fullStats.Supersteps
			if S < 5 {
				t.Fatalf("full run too short to be interesting: %d supersteps", S)
			}
			if fullStats.CheckpointPath == "" {
				t.Fatal("full run recorded no CheckpointPath")
			}
			for k := 0; k < S; k++ {
				res := newCkptEngine(g, sched, Continue(chainSnapshot(t, recordAt(t, dir, k))), "", 0)
				stats, err := res.Run(ckptProgram{rounds: 8})
				if err != nil {
					t.Fatalf("k=%d: resume: %v", k, err)
				}
				if got, wantLeft := stats.Supersteps, S-(k+1); got != wantLeft {
					t.Errorf("k=%d: resumed run took %d supersteps, want %d", k, got, wantLeft)
				}
				for u, w := range want {
					got := res.Value(VertexID(u))
					if math.Float64bits(got.X) != math.Float64bits(w.X) || got.N != w.N {
						t.Fatalf("k=%d: value[%d] = %+v, want %+v", k, u, got, w)
					}
				}
				if got := res.AggregatorValue("peak"); got != wantPeak {
					t.Errorf("k=%d: peak = %g, want %g", k, got, wantPeak)
				}
				if got := res.AggregatorValue("total"); got != wantTotal {
					t.Errorf("k=%d: total = %g, want %g", k, got, wantTotal)
				}
			}
		})
	}
}

// TestCheckpointSinkStream checks that Sink receives a self-delimiting
// stream: decoding in a loop yields one snapshot per checkpointed barrier,
// in superstep order, and the last one is marked Done.
func TestCheckpointSinkStream(t *testing.T) {
	g := graph.ErdosRenyi(40, 160, true, 3)
	var buf bytes.Buffer
	e := New[ckptVal, float64](g, Options{
		Workers:    3,
		Checkpoint: CheckpointOptions{Every: 1, Sink: &buf},
	})
	if _, err := e.RegisterAggregator("total", AggSum, true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterAggregator("peak", AggMax, false); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(ckptProgram{rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	var snaps []*Snapshot
	for len(b) > 0 {
		s, rest, err := DecodeSnapshot(b)
		if err != nil {
			t.Fatalf("snapshot %d: %v", len(snaps), err)
		}
		snaps = append(snaps, s)
		b = rest
	}
	if len(snaps) != stats.Supersteps {
		t.Fatalf("decoded %d snapshots, want %d", len(snaps), stats.Supersteps)
	}
	for i, s := range snaps {
		if s.Superstep != i {
			t.Errorf("snapshot %d claims superstep %d", i, s.Superstep)
		}
		if s.Fingerprint != g.Fingerprint() {
			t.Errorf("snapshot %d has wrong fingerprint", i)
		}
		if got, want := s.Done, i == len(snaps)-1; got != want {
			t.Errorf("snapshot %d: Done = %v, want %v", i, got, want)
		}
	}
}

// TestCheckpointOnAbort cancels a run mid-flight and checks the abort left
// a resumable snapshot behind: CheckpointPath is set, and resuming from it
// reaches the same final state as the uninterrupted run.
func TestCheckpointOnAbort(t *testing.T) {
	g := graph.ErdosRenyi(50, 200, true, 11)
	full := newCkptEngine(g, WorkQueue, nil, "", 0)
	if _, err := full.Run(ckptProgram{rounds: 8}); err != nil {
		t.Fatal(err)
	}
	want := append([]ckptVal(nil), full.Values()...)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	e := newCkptEngine(g, WorkQueue, nil, dir, 0)
	hops := 0
	e.SetMasterHook(func(mc *MasterContext) {
		if hops++; hops == 3 {
			cancel()
		}
	})
	stats, err := e.RunContext(ctx, ckptProgram{rounds: 8})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !stats.Aborted {
		t.Fatal("stats not marked aborted")
	}
	if stats.CheckpointPath == "" {
		t.Fatal("abort left no CheckpointPath")
	}
	snap := chainSnapshot(t, stats.CheckpointPath)
	if snap.Done {
		t.Fatal("abort snapshot claims the run finished")
	}
	res := newCkptEngine(g, WorkQueue, Continue(snap), "", 0)
	if _, err := res.Run(ckptProgram{rounds: 8}); err != nil {
		t.Fatal(err)
	}
	for u, w := range want {
		got := res.Value(VertexID(u))
		if math.Float64bits(got.X) != math.Float64bits(w.X) || got.N != w.N {
			t.Fatalf("value[%d] = %+v, want %+v", u, got, w)
		}
	}
}

// TestCheckpointOnSuperstepLimit checks the MaxSupersteps exit writes a
// snapshot too, and that a rerun with a higher limit continues from it and
// matches an unbounded run.
func TestCheckpointOnSuperstepLimit(t *testing.T) {
	g := graph.ErdosRenyi(40, 160, true, 5)
	full := newCkptEngine(g, ScanAll, nil, "", 0)
	if _, err := full.Run(ckptProgram{rounds: 8}); err != nil {
		t.Fatal(err)
	}
	want := append([]ckptVal(nil), full.Values()...)

	dir := t.TempDir()
	e := newCkptEngine(g, ScanAll, nil, dir, 0)
	e.opts.MaxSupersteps = 4
	_, err := e.Run(ckptProgram{rounds: 8})
	if err == nil {
		t.Fatal("expected superstep-limit error")
	}
	res := newCkptEngine(g, ScanAll, Continue(chainSnapshot(t, recordAt(t, dir, 3))), "", 0)
	if _, err := res.Run(ckptProgram{rounds: 8}); err != nil {
		t.Fatal(err)
	}
	for u, w := range want {
		got := res.Value(VertexID(u))
		if math.Float64bits(got.X) != math.Float64bits(w.X) || got.N != w.N {
			t.Fatalf("value[%d] = %+v, want %+v", u, got, w)
		}
	}
}

// TestCodecRequired checks that checkpointing a pointered value type
// without an explicit codec fails up front with a useful error.
func TestCodecRequired(t *testing.T) {
	type ptrVal struct{ P *int }
	g := graph.Path(4, true)
	e := New[ptrVal, float64](g, Options{
		Checkpoint: CheckpointOptions{Every: 1, Sink: &bytes.Buffer{}},
	})
	_, err := e.Run(haltImmediately[ptrVal]{})
	if err == nil {
		t.Fatal("expected codec error")
	}
}

type haltImmediately[V any] struct{}

func (haltImmediately[V]) Init(ctx *Context[V, float64])                    { ctx.VoteToHalt() }
func (haltImmediately[V]) Compute(ctx *Context[V, float64], msgs []float64) { ctx.VoteToHalt() }

// TestSnapshotRoundTrip is the codec property test: random snapshots
// survive AppendTo → DecodeSnapshot → AppendTo byte for byte, including
// when embedded in a longer stream.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := randSnapshot(rng, rng.Intn(40))
		prefix := randBytes(rng, rng.Intn(8))
		enc := s.AppendTo(append([]byte(nil), prefix...))
		tail := randBytes(rng, rng.Intn(8))
		enc = append(enc, tail...)

		got, rest, err := DecodeSnapshot(enc[len(prefix):])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(rest, tail) {
			t.Fatalf("trial %d: remainder mismatch", trial)
		}
		if !sameSnapshot(s, got) {
			t.Fatalf("trial %d: round trip mismatch:\n got %+v\nwant %+v", trial, got, s)
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// sameSnapshot reports whether a and b encode to the same bytes: the
// encoding is the whole of a snapshot's state.
func sameSnapshot(a, b *Snapshot) bool { return bytes.Equal(a.AppendTo(nil), b.AppendTo(nil)) }

// TestSnapshotDecodeRejects spot-checks the decoder's corruption handling
// (the fuzz target explores this space much harder).
func TestSnapshotDecodeRejects(t *testing.T) {
	enc := blankSnapshot(snapHeader{Fingerprint: 1, NumVertices: 3}).AppendTo(nil)

	t.Run("truncated", func(t *testing.T) {
		for i := 0; i < len(enc); i++ {
			if _, _, err := DecodeSnapshot(enc[:i]); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", i)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := 0; i < len(enc); i++ {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x40
			if _, _, err := DecodeSnapshot(bad); err == nil {
				t.Fatalf("bit flip at byte %d decoded successfully", i)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, _, err := DecodeSnapshot(nil); err == nil {
			t.Fatal("empty input decoded successfully")
		}
	})
}

// TestPODCodecRejectsPointers pins the POD gate.
func TestPODCodecRejectsPointers(t *testing.T) {
	if _, err := PODCodec[*int](); err == nil {
		t.Error("PODCodec[*int] succeeded")
	}
	if _, err := PODCodec[struct{ S string }](); err == nil {
		t.Error("PODCodec[struct{string}] succeeded")
	}
	if _, err := PODCodec[struct {
		A [3]float64
		B int32
	}](); err != nil {
		t.Errorf("PODCodec on POD struct failed: %v", err)
	}
}

// markCodec encodes a zero-size value as one marker byte.
type markCodec struct{}

func (markCodec) AppendValue(dst []byte, _ struct{}) []byte { return append(dst, 0x7f) }

func (markCodec) DecodeValue(src []byte) (struct{}, []byte, error) {
	if len(src) == 0 || src[0] != 0x7f {
		return struct{}{}, nil, ErrSnapshotCorrupt
	}
	return struct{}{}, src[1:], nil
}

// TestAppendValuesZeroSize holds appendValues' repeated encoding of a
// zero-size value to the value-at-a-time one, for a codec that writes
// bytes and for one that writes none.
func TestAppendValuesZeroSize(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		vs := make([]struct{}, n)
		var want []byte
		for range vs {
			want = markCodec{}.AppendValue(want, struct{}{})
		}
		if got := appendValues([]byte{1}, ValueCodec[struct{}](markCodec{}), vs); !bytes.Equal(got, append([]byte{1}, want...)) {
			t.Errorf("n=%d: marker codec appended %x, want %x", n, got[1:], want)
		}
		pod, err := PODCodec[struct{}]()
		if err != nil {
			t.Fatal(err)
		}
		if got := appendValues(nil, pod, vs); len(got) != 0 {
			t.Errorf("n=%d: POD codec appended %x for zero-size values", n, got)
		}
	}
}
