package pregel

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// withGoroutineCheck runs fn and then verifies that every goroutine the run
// started has exited: the engine's worker pool must drain cleanly on every
// abort path, never leaking a goroutine blocked on a barrier. Goroutine
// counts settle asynchronously after RunContext returns (workers exit after
// acknowledging the stop broadcast), so the check polls briefly.
func withGoroutineCheck(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cancelHookProgram spins forever; the test cancels it from outside.
type cancelSpinProgram struct{}

func (cancelSpinProgram) Init(ctx *Context[sumVal, float64]) { ctx.BroadcastOut(1) }
func (cancelSpinProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	ctx.BroadcastOut(1)
}

func TestAbortCancelledContext(t *testing.T) {
	g := graph.Cycle(64, true)
	withGoroutineCheck(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		e := New[sumVal, float64](g, Options{Workers: 4})
		// Cancel mid-run, from the master hook after a few supersteps, so
		// the abort provably lands between barriers of a live run.
		e.SetMasterHook(func(mc *MasterContext) {
			if mc.Superstep() == 3 {
				cancel()
			}
		})
		stats, err := e.RunContext(ctx, cancelSpinProgram{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if stats == nil {
			t.Fatal("aborted run returned nil Stats")
		}
		if !stats.Aborted || stats.AbortReason == "" {
			t.Fatalf("stats not marked aborted: %+v", stats)
		}
		if stats.Supersteps < 4 {
			t.Fatalf("partial stats lost: %d supersteps recorded, want >= 4", stats.Supersteps)
		}
		if len(stats.Steps) != stats.Supersteps {
			t.Fatalf("Steps has %d entries, Supersteps = %d", len(stats.Steps), stats.Supersteps)
		}
		if stats.Duration <= 0 {
			t.Fatal("aborted run has zero Duration")
		}
	})
}

func TestAbortPreCancelledContext(t *testing.T) {
	g := graph.Cycle(16, true)
	withGoroutineCheck(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		e := New[sumVal, float64](g, Options{Workers: 2})
		stats, err := e.RunContext(ctx, cancelSpinProgram{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if stats == nil || !stats.Aborted {
			t.Fatalf("want non-nil aborted stats, got %+v", stats)
		}
		if stats.Supersteps != 0 || stats.Steps == nil {
			t.Fatalf("pre-cancelled run: supersteps=%d steps=%v", stats.Supersteps, stats.Steps)
		}
	})
}

func TestAbortDeadline(t *testing.T) {
	g := graph.Cycle(64, true)
	t.Run("context-deadline", func(t *testing.T) {
		withGoroutineCheck(t, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			e := New[sumVal, float64](g, Options{Workers: 4})
			stats, err := e.RunContext(ctx, cancelSpinProgram{})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if stats == nil || !stats.Aborted {
				t.Fatalf("want non-nil aborted stats, got %+v", stats)
			}
		})
	})
}

// panicProgram panics inside Compute on one specific vertex at one specific
// superstep; every other vertex keeps the computation busy.
type panicProgram struct {
	vertex VertexID
	step   int
}

func (p panicProgram) Init(ctx *Context[sumVal, float64]) {
	if p.step == 0 && ctx.ID() == p.vertex {
		panic(fmt.Sprintf("boom at vertex %d", p.vertex))
	}
	ctx.BroadcastOut(1)
}
func (p panicProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	if ctx.Superstep() == p.step && ctx.ID() == p.vertex {
		panic(fmt.Sprintf("boom at vertex %d", p.vertex))
	}
	ctx.BroadcastOut(1)
}

func TestAbortPanickingCompute(t *testing.T) {
	g := graph.Cycle(64, true)
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		t.Run(schedName(sched), func(t *testing.T) {
			withGoroutineCheck(t, func() {
				e := New[sumVal, float64](g, Options{Workers: 4, Scheduler: sched})
				stats, err := e.Run(panicProgram{vertex: 17, step: 2})
				if err == nil {
					t.Fatal("panicking Compute returned nil error")
				}
				var re *RunError
				if !errors.As(err, &re) {
					t.Fatalf("err = %T %v, want *RunError", err, err)
				}
				if re.Superstep != 2 {
					t.Fatalf("RunError.Superstep = %d, want 2", re.Superstep)
				}
				if re.Phase != "compute" {
					t.Fatalf("RunError.Phase = %q, want compute", re.Phase)
				}
				if !re.HasVertex || re.Vertex != 17 {
					t.Fatalf("RunError vertex attribution = (%v, %d), want (true, 17)", re.HasVertex, re.Vertex)
				}
				// Vertex 17 of 64 over 4 workers (block 16) lives on worker 1.
				if re.Worker != 1 {
					t.Fatalf("RunError.Worker = %d, want 1", re.Worker)
				}
				if s, ok := re.Value.(string); !ok || !strings.Contains(s, "boom") {
					t.Fatalf("RunError.Value = %v, want the panic payload", re.Value)
				}
				if len(re.Stack) == 0 {
					t.Fatal("RunError.Stack is empty")
				}
				if !strings.Contains(re.Error(), "vertex 17") {
					t.Fatalf("RunError.Error() = %q, want vertex attribution", re.Error())
				}
				if stats == nil || !stats.Aborted {
					t.Fatalf("want non-nil aborted stats, got %+v", stats)
				}
				// Supersteps 0 and 1 completed before the panic.
				if stats.Supersteps != 2 {
					t.Fatalf("partial stats: %d supersteps, want 2", stats.Supersteps)
				}
				// The panicking superstep is torn: no snapshot value either.
				if snap, err := e.Snapshot(); err == nil {
					t.Fatalf("Snapshot() after a panic abort = superstep %d, want an error", snap.Superstep)
				}
			})
		})
	}
}

func TestAbortPanickingInit(t *testing.T) {
	g := graph.Cycle(8, true)
	withGoroutineCheck(t, func() {
		e := New[sumVal, float64](g, Options{Workers: 2})
		stats, err := e.Run(panicProgram{vertex: 3, step: 0})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RunError", err)
		}
		if re.Superstep != 0 || !re.HasVertex || re.Vertex != 3 {
			t.Fatalf("RunError = %+v, want superstep 0 vertex 3", re)
		}
		if stats.Supersteps != 0 {
			t.Fatalf("supersteps = %d, want 0", stats.Supersteps)
		}
	})
}

// panicErrProgram panics with an error value, which RunError must expose
// through Unwrap so errors.Is works across the panic boundary.
type panicErrProgram struct{ err error }

func (p panicErrProgram) Init(ctx *Context[sumVal, float64])                    { panic(p.err) }
func (p panicErrProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {}

func TestRunErrorUnwrapsPanicErrorValue(t *testing.T) {
	sentinel := errors.New("user compute failure")
	g := graph.Path(4, true)
	withGoroutineCheck(t, func() {
		e := New[sumVal, float64](g, Options{Workers: 2})
		_, err := e.Run(panicErrProgram{err: sentinel})
		if !errors.Is(err, sentinel) {
			t.Fatalf("errors.Is through RunError failed: %v", err)
		}
	})
}

// panicHook exercises panic containment on the master goroutine.
func TestAbortPanickingMasterHook(t *testing.T) {
	g := graph.Cycle(16, true)
	withGoroutineCheck(t, func() {
		e := New[sumVal, float64](g, Options{Workers: 2})
		e.SetMasterHook(func(mc *MasterContext) {
			if mc.Superstep() == 1 {
				panic("hook boom")
			}
		})
		stats, err := e.Run(cancelSpinProgram{})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RunError", err)
		}
		if re.Worker != MasterWorker || re.Phase != "master" || re.Superstep != 1 {
			t.Fatalf("RunError = %+v, want master-phase superstep 1", re)
		}
		// Supersteps 0 and 1 completed (the hook runs after the step).
		if stats == nil || stats.Supersteps != 2 {
			t.Fatalf("stats = %+v, want 2 completed supersteps", stats)
		}
	})
}

// TestAbortStatsStringMentionsReason pins the Stats.String abort rendering
// used by dvrun and the bench harness.
func TestAbortStatsStringMentionsReason(t *testing.T) {
	s := Stats{Supersteps: 3, Aborted: true, AbortReason: "context canceled"}
	if out := s.String(); !strings.Contains(out, "aborted=") || !strings.Contains(out, "context canceled") {
		t.Fatalf("Stats.String() = %q, want abort reason", out)
	}
}

// chainSupersteps lists the supersteps of dir's chain records, in manifest
// order.
func chainSupersteps(t *testing.T, dir string) []int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, ChainManifestName))
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := DecodeChainManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	for _, e := range entries {
		steps = append(steps, e.Superstep)
	}
	return steps
}

// TestAbortOnCaptureBarrierWritesOneRecord cancels a run exactly on a
// barrier the periodic capture writes: the abort stops at that barrier and
// must not append a second record for it.
func TestAbortOnCaptureBarrierWritesOneRecord(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := New[sumVal, float64](graph.Cycle(64, true), Options{
		Workers:    2,
		Checkpoint: CheckpointOptions{Dir: dir, Every: 3},
	})
	e.SetMasterHook(func(mc *MasterContext) {
		if mc.Superstep() == 5 { // (5+1) % Every == 0: a capture barrier
			cancel()
		}
	})
	stats, err := e.RunContext(ctx, cancelSpinProgram{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.CheckpointSuperstep != 5 {
		t.Fatalf("last capture at superstep %d, want 5", stats.CheckpointSuperstep)
	}
	if got := chainSupersteps(t, dir); !slices.Equal(got, []int{2, 5}) {
		t.Fatalf("chain records at supersteps %v, want [2 5]", got)
	}
}

// TestSuperstepLimitOnCaptureBarrierWritesOneRecord stops a run at a
// MaxSupersteps that is a multiple of Every: the limit's barrier is one the
// periodic capture wrote, and the chain holds one record for it.
func TestSuperstepLimitOnCaptureBarrierWritesOneRecord(t *testing.T) {
	dir := t.TempDir()
	e := New[sumVal, float64](graph.Cycle(64, true), Options{
		Workers:       2,
		MaxSupersteps: 6,
		Checkpoint:    CheckpointOptions{Dir: dir, Every: 3},
	})
	stats, err := e.Run(cancelSpinProgram{})
	if err == nil || !strings.Contains(err.Error(), "superstep limit") {
		t.Fatalf("err = %v, want the superstep limit", err)
	}
	if stats.CheckpointSuperstep != 5 {
		t.Fatalf("last capture at superstep %d, want 5", stats.CheckpointSuperstep)
	}
	if got := chainSupersteps(t, dir); !slices.Equal(got, []int{2, 5}) {
		t.Fatalf("chain records at supersteps %v, want [2 5]", got)
	}
}
