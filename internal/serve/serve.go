// Package serve turns a one-shot ΔV run into a resident serving process:
// load a graph, converge a compiled program once, then answer point reads
// from an immutable published version while edge mutations stream into a
// bounded log that is periodically collapsed into a delta-recomputation
// repair (vm.RunDelta) — the paper's incrementalization payoff applied to
// the always-on setting where queries must never wait on recomputation.
//
// # Version lifecycle
//
// A Version is an immutable {vertex values, graph, fingerprint, superstep}
// published through one atomic pointer. Readers load the pointer and are
// thereby pinned to that epoch: everything they touch — value vectors,
// adjacency — belongs to one converged fixpoint, bit-stable for as long
// as they hold it. Repair runs entirely off to the side on the next
// graph; only when the repaired fixpoint is complete does a single
// pointer swap publish epoch N+1 (double buffering, generalized: old
// readers finish on N while new readers start on N+1). The old version's
// graph is then retired with graph.Close, whose Retain/Release refcount
// defers the actual unmap past any reader still iterating mapped
// adjacency.
//
// # Repair batching policy
//
// Mutations accepted by Enqueue accumulate in a bounded in-memory log
// (MaxPending; beyond it Enqueue fails with ErrLogFull — backpressure,
// not silent dropping). A background flush collapses the log into one
// graph.Delta and applies it as a single batch every BatchInterval, or as
// soon as MaxBatch entries are pending, whichever comes first; Flush
// forces the same synchronously. Batching preserves log order within and
// across batches, so "add u v; del u v" semantics survive the batch
// boundary. Admission consults the program's static repairability matrix
// (core.RepairProfile, computed once at boot): a batch containing a delta
// class the matrix marks statically unrepairable — Unsupported, or an
// unconditional fallback such as added vertices — skips the planner
// entirely and goes straight to a from-scratch rerun, counted per class
// in Stats. Otherwise each batch tries the cheap path first — vm.RunDelta
// from the previous version's terminal snapshot — and falls back to a
// from-scratch rerun when a per-value guard rejects the delta (snapshot
// mismatch, retracting a live contribution, …). A batch that fails both
// paths is discarded with its error counted and logged: the published
// version always remains a true fixpoint of some graph.
//
// # Checkpoint chain
//
// With Config.ChainDir set, every published version is persisted to a
// checkpoint chain (internal/pregel): the initial convergence writes a
// full base snapshot, and each flushed batch atomically appends the
// batch's mutation log plus an incremental DVSNPD record of the repaired
// fixpoint. A restarted server pointed at the same directory replays the
// chain — mutation logs rebuild the graph from the boot-time one, delta
// records rebuild the tip snapshot — and seeds serving state directly
// from the tip (vm.SeedFromSnapshot) without rerunning the program or
// rereading full vertex state. The boot-time graph itself is not stored
// in the chain; the operator must hand New the same initial graph (same
// fingerprint) the chain was started from.
//
// # Quarantine semantics
//
// With Config.Quarantine set (dvserve always sets it), a vertex program
// that panics during a repair or rerun is contained to that vertex
// (pregel.Options.Quarantine): its partial sends are retracted, the
// vertex is removed from the computation, and the run — and therefore the
// server — survives. The cumulative count is exposed in Stats.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// ErrLogFull is returned by Enqueue when accepting the mutations would
// exceed Config.MaxPending.
var ErrLogFull = errors.New("serve: mutation log full")

// ErrClosed is returned by operations on a closed server.
var ErrClosed = errors.New("serve: server closed")

// Config configures a Server. Prog and Graph are required; the server
// takes ownership of Graph (it is Closed when its version is retired).
type Config struct {
	// Prog is the compiled program to keep converged.
	Prog *core.Program
	// Graph is the initial graph. Ownership passes to the server.
	Graph *graph.Graph

	// Params override program parameter defaults by name.
	Params map[string]float64
	// Workers and Combine configure every run the server performs,
	// exactly as in vm.RunOptions; the runs use the ScanAll scheduler.
	Workers int
	Combine bool
	// Quarantine contains vertex-program panics to the panicking vertex
	// instead of failing the batch (see pregel.Options.Quarantine).
	Quarantine bool

	// MaxPending bounds the mutation log; Enqueue fails with ErrLogFull
	// beyond it. Default 65536 entries.
	MaxPending int
	// MaxBatch triggers an immediate flush once this many mutations are
	// pending. Default: MaxPending.
	MaxBatch int
	// BatchInterval is the periodic flush cadence. Zero disables the
	// timer; flushes then happen only via MaxBatch or explicit Flush.
	BatchInterval time.Duration

	// ChainDir, when non-empty, persists every published version to a
	// checkpoint chain in that directory and, when the directory already
	// holds a chain manifest, seeds the server from the chain tip instead
	// of recomputing. The graph passed in Graph must then be the same
	// boot-time graph the chain was started from; its mutation logs are
	// replayed on top of it. The chain writes a fresh full base after
	// pregel.DefaultRebaseEvery incremental records.
	ChainDir string

	// RepairBudget, when positive, bounds each delta repair to
	// ceil(RepairBudget × S) body supersteps, where S is the superstep
	// count of the fixpoint being repaired — past that the repair has lost
	// to the from-scratch path it was supposed to undercut, so the run is
	// abandoned (vm.ErrRepairBudget) and the batch falls back to a
	// from-scratch rerun, counted in Stats. Zero disables the budget, and
	// so does a bound at or past the runs' superstep limit (+Inf, say).
	// New refuses a negative or NaN budget.
	RepairBudget float64

	// Logf receives operational log lines (batch failures, fallbacks).
	// Nil discards them.
	Logf func(format string, args ...any)
}

// Version is one published, immutable serving epoch: the converged field
// values of one graph, plus the terminal snapshot that seeds the next
// repair. All exported fields are read-only after publication.
type Version struct {
	// Epoch numbers published versions from 1 (the initial convergence).
	Epoch int64
	// Fingerprint identifies the graph this fixpoint belongs to.
	Fingerprint uint64
	// Superstep is the superstep count at which the fixpoint converged.
	Superstep int
	// Repaired is true when this version was produced by delta repair
	// (vm.RunDelta), false for from-scratch runs (epoch 1, fallbacks).
	Repaired bool
	// Stats is the run that produced this version (a copy: a published
	// version keeps nothing of the engine that computed it alive).
	Stats *pregel.Stats

	g      *graph.Graph
	fields map[string][]float64
	snap   *pregel.Snapshot
	head   []byte // the read replies' constant head (renderHead)
}

// Graph returns the version's graph. Callers iterating adjacency while
// the version may be superseded must pin it with Graph().Retain().
func (v *Version) Graph() *graph.Graph { return v.g }

// Field returns the published vector of the named user field.
func (v *Version) Field(name string) ([]float64, bool) {
	vec, ok := v.fields[name]
	return vec, ok
}

// Server is a resident serving process for one compiled program.
type Server struct {
	cfg     Config
	fields  []string          // published user-field names, layout order
	quoted  map[string][]byte // each field name as a JSON string, for read replies
	profile *core.RepairProfile
	chain   *pregel.ChainWriter // nil unless Config.ChainDir is set

	current atomic.Pointer[Version]

	mu      sync.Mutex // guards pending
	pending []graph.Mutation

	repairMu sync.Mutex // serializes batch application

	wake     chan struct{}
	stop     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
	closed   atomic.Bool

	// Counters exposed through Stats.
	reads       atomic.Int64
	mutAccepted atomic.Int64
	mutRejected atomic.Int64
	batches     atomic.Int64
	repairs     atomic.Int64
	fallbacks   atomic.Int64
	// budgetFallbacks counts the fallbacks caused specifically by a repair
	// overrunning Config.RepairBudget (a subset of fallbacks).
	budgetFallbacks atomic.Int64
	failed          atomic.Int64
	quarantined     atomic.Int64
	// staticFallbacks counts, per delta class, the batches that admission
	// short-circuited to the from-scratch path because the repairability
	// matrix rules the class out without looking at values.
	staticFallbacks [core.NumDeltaClasses]atomic.Int64
}

// hookMidRepair, when non-nil, runs inside Flush after the replacement
// version is fully computed but before it is published — the widest
// deterministic window in which a repair is in flight. Tests use it to
// prove reads neither block on the repair lock nor observe torn state.
var hookMidRepair func(old *Version)

// hookDeltaRepair, when non-nil, runs at the top of every vm.RunDelta
// attempt. Tests use it to prove that statically-unrepairable batches
// never reach the planner.
var hookDeltaRepair func()

// New publishes the server's first version and starts the background
// flush loop. Without a chain (or with an empty ChainDir directory) it
// converges cfg.Prog on cfg.Graph from scratch and publishes epoch 1;
// when ChainDir already holds a chain manifest it replays the chain over
// cfg.Graph and seeds the tip fixpoint directly, publishing the epoch the
// previous process reached. On error the caller keeps ownership of
// cfg.Graph.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Prog == nil || cfg.Graph == nil {
		return nil, fmt.Errorf("serve: Config needs Prog and Graph")
	}
	if !(cfg.RepairBudget >= 0) {
		return nil, fmt.Errorf("serve: RepairBudget %v: want 0 (unbounded) or a positive factor", cfg.RepairBudget)
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 65536
	}
	if cfg.MaxBatch <= 0 || cfg.MaxBatch > cfg.MaxPending {
		cfg.MaxBatch = cfg.MaxPending
	}
	s := &Server{
		cfg:      cfg,
		profile:  cfg.Prog.Repairability(),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	s.quoted = make(map[string][]byte, cfg.Prog.Layout.UserFields)
	for _, f := range cfg.Prog.Layout.Fields[:cfg.Prog.Layout.UserFields] {
		s.fields = append(s.fields, f.Name)
		// Identifiers may hold Unicode letters: encoding/json's escaping,
		// once per field instead of once per read. A string always marshals.
		s.quoted[f.Name], _ = json.Marshal(f.Name)
	}
	var tip *pregel.ChainState
	if cfg.ChainDir != "" {
		// Opened (and an existing manifest replayed, once, for both the
		// writer's diff base and the boot below) before any compute, so a
		// corrupt chain fails fast with cfg.Graph still owned by the caller.
		var err error
		s.chain, tip, err = pregel.OpenChain(cfg.ChainDir, 0)
		if err != nil {
			return nil, fmt.Errorf("serve: opening chain %s: %w", cfg.ChainDir, err)
		}
	}
	var v *Version
	if tip != nil {
		var err error
		v, err = s.bootFromChain(tip)
		if err != nil {
			return nil, err
		}
	} else {
		res, err := s.runScratch(ctx, cfg.Graph)
		if err != nil {
			return nil, fmt.Errorf("serve: initial convergence: %w", err)
		}
		v, err = s.buildVersion(1, cfg.Graph, res, res.Snapshot(), false)
		if err != nil {
			return nil, err
		}
		if s.chain != nil {
			// Fresh chain: persist the initial convergence as the base so a
			// restart never has to recompute epoch 1 either.
			if _, _, err := s.chain.AppendSnapshot(v.snap); err != nil {
				return nil, fmt.Errorf("serve: persisting initial snapshot: %w", err)
			}
		}
	}
	s.current.Store(v)
	// From here on the graph to use is the published version's. Keeping the
	// boot-time one reachable would pin a superseded graph — closed, after a
	// chain boot — for the server's whole life.
	s.cfg.Graph = nil
	go s.loop()
	return s, nil
}

// bootFromChain replays the loaded chain over the boot-time graph
// cfg.Graph: each persisted mutation log advances the graph one batch, the
// reconstructed tip snapshot then seeds serving state directly
// (vm.SeedFromSnapshot) — no superstep is executed and no full vertex
// state is reread. The returned version carries the epoch the chain
// recorded: 1 + the number of persisted batches. On error cfg.Graph is
// left open (the caller owns it); on success, ownership of the replayed
// graph passes to the returned version and cfg.Graph is retired if the
// replay superseded it.
func (s *Server) bootFromChain(st *pregel.ChainState) (*Version, error) {
	g, err := st.Replay(s.cfg.Graph)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// fail closes the replayed graph (never the caller's).
	fail := func(err error) (*Version, error) {
		if g != s.cfg.Graph {
			g.Close()
		}
		return nil, err
	}
	res, err := vm.SeedFromSnapshot(s.cfg.Prog, g, s.runOpts(), st.Snapshot)
	if err != nil {
		return fail(fmt.Errorf("serve: chain %s: seeding from tip snapshot: %w", st.Dir, err))
	}
	epoch := int64(1 + len(st.GraphDeltas))
	v, err := s.buildVersion(epoch, g, res, st.Snapshot, false)
	if err != nil {
		return fail(err)
	}
	if g != s.cfg.Graph {
		// Success: the server owns the boot-time graph too, and the replayed
		// graph has superseded it.
		s.cfg.Graph.Close()
	}
	s.logf("serve: chain: seeded epoch %d from %s (superstep %d, fingerprint %016x, %d batches replayed)",
		epoch, st.Dir, st.Snapshot.Superstep, st.Snapshot.Fingerprint, len(st.GraphDeltas))
	return v, nil
}

// Current returns the published version. The pointer pins the caller to
// that epoch: its vectors never change and its graph survives (for
// adjacency iteration, take Graph().Retain()).
func (s *Server) Current() *Version { return s.current.Load() }

// Enqueue appends mutations to the pending log, reporting the new log
// length. It fails with ErrLogFull when the log cannot take them and
// ErrClosed after Close; partial batches are never enqueued.
func (s *Server) Enqueue(muts []graph.Mutation) (pending int, err error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	s.mu.Lock()
	if len(s.pending)+len(muts) > s.cfg.MaxPending {
		n := len(s.pending)
		s.mu.Unlock()
		s.mutRejected.Add(int64(len(muts)))
		return n, fmt.Errorf("%w: %d pending + %d new > %d", ErrLogFull, n, len(muts), s.cfg.MaxPending)
	}
	s.pending = append(s.pending, muts...)
	pending = len(s.pending)
	s.mu.Unlock()
	s.mutAccepted.Add(int64(len(muts)))
	if pending >= s.cfg.MaxBatch {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return pending, nil
}

// Pending reports the current mutation-log length.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Flush synchronously collapses the pending log into one batch, repairs
// (or recomputes) the fixpoint, and publishes the next version. With an
// empty log it returns the current version unchanged. Concurrent flushes
// serialize; reads are never blocked by a flush in progress.
func (s *Server) Flush(ctx context.Context) (*Version, error) {
	if s.closed.Load() {
		return s.current.Load(), ErrClosed
	}
	s.repairMu.Lock()
	defer s.repairMu.Unlock()

	s.mu.Lock()
	muts := s.pending
	s.pending = nil
	s.mu.Unlock()

	cur := s.current.Load()
	if len(muts) == 0 {
		return cur, nil
	}
	s.batches.Add(1)

	next, err := s.applyBatch(ctx, cur, muts)
	if err != nil {
		s.failed.Add(1)
		s.logf("serve: batch of %d mutations discarded: %v", len(muts), err)
		return cur, err
	}
	if s.chain != nil {
		// Persist before publishing: a version a restart cannot reach must
		// never be served. The chain commits the mutation log and the
		// snapshot as one atomic manifest rename, so a crash here leaves the
		// previous epoch fully replayable.
		if err := s.persistBatch(muts, next); err != nil {
			s.failed.Add(1)
			next.g.Close()
			s.logf("serve: batch of %d mutations discarded: persisting to chain: %v", len(muts), err)
			return cur, fmt.Errorf("serve: persisting to chain: %w", err)
		}
	}
	if hookMidRepair != nil {
		hookMidRepair(cur)
	}
	s.current.Store(next)
	// Retire the superseded graph; Retain/Release defers the unmap past
	// readers still pinned to the old epoch.
	cur.g.Close()
	return next, nil
}

// applyBatch computes the replacement version for cur + muts without
// touching any published state. Admission consults the repairability
// matrix first: a batch containing a statically-unrepairable delta class
// goes straight to the from-scratch path without invoking the planner.
func (s *Server) applyBatch(ctx context.Context, cur *Version, muts []graph.Mutation) (*Version, error) {
	g, applied, err := graph.ApplyDelta(cur.g, &graph.Delta{Muts: muts})
	if err != nil {
		return nil, fmt.Errorf("applying delta: %w", err)
	}
	repaired := false
	var res *vm.Result
	if bad := s.admitBatch(muts); bad != nil {
		// The matrix rules the batch out before any values are looked at;
		// attempting the repair would only rediscover the same verdict.
		s.fallbacks.Add(1)
		s.logf("serve: batch holds %s mutations the program cannot repair (%s); recomputing from scratch",
			bad.Class, bad.Reason)
		res, err = s.runScratch(ctx, g)
	} else {
		res, err = s.runDelta(ctx, g, cur.snap, applied, s.repairBudget(cur))
		if err != nil {
			// A per-value guard rejected the batch (retracting a live
			// contribution, loosening a clamped fixpoint, …), the repair
			// overran its superstep budget, or the run itself aborted: fall
			// back to a from-scratch run on the mutated graph. Correctness
			// never depends on the repair path being available.
			s.fallbacks.Add(1)
			if errors.Is(err, vm.ErrRepairBudget) {
				s.budgetFallbacks.Add(1)
				s.logf("serve: repair passed break-even (%v); recomputing from scratch", err)
			} else {
				s.logf("serve: delta repair unavailable (%v); recomputing from scratch", err)
			}
			res, err = s.runScratch(ctx, g)
		} else {
			repaired = true
			s.repairs.Add(1)
		}
	}
	if err != nil {
		g.Close()
		return nil, fmt.Errorf("from-scratch fallback: %w", err)
	}
	next, err := s.buildVersion(cur.Epoch+1, g, res, res.Snapshot(), repaired)
	if err != nil {
		g.Close()
		return nil, err
	}
	return next, nil
}

// admitBatch checks every delta class present in the batch against the
// repairability matrix. It returns the first verdict that is statically
// unrepairable — Unsupported, or FallbackRequired with an Unconditional
// reason — and bumps the per-class counter for each such class; nil means
// the repair path is worth attempting. A weight rewrite's direction
// (tighten vs loosen) depends on the old weight, so it conservatively
// counts as both weight classes.
func (s *Server) admitBatch(muts []graph.Mutation) *core.ClassVerdict {
	var present [core.NumDeltaClasses]bool
	for _, m := range muts {
		switch m.Op {
		case graph.MutAddEdge:
			present[core.DeltaArcAdd] = true
		case graph.MutRemoveEdge:
			present[core.DeltaArcRemove] = true
		case graph.MutSetWeight:
			present[core.DeltaWeightTighten] = true
			present[core.DeltaWeightLoosen] = true
		case graph.MutAddVertices:
			present[core.DeltaVertexAdd] = true
		}
	}
	var first *core.ClassVerdict
	for c := core.DeltaClass(0); int(c) < core.NumDeltaClasses; c++ {
		if !present[c] {
			continue
		}
		v := s.profile.Verdict(c)
		if v.Cap == core.Repairable || (v.Cap == core.FallbackRequired && !v.Unconditional) {
			continue
		}
		s.staticFallbacks[c].Add(1)
		if first == nil {
			first = &v
		}
	}
	return first
}

// runScratch converges the program from scratch on g.
func (s *Server) runScratch(ctx context.Context, g *graph.Graph) (*vm.Result, error) {
	res, err := vm.RunContext(ctx, s.cfg.Prog, g, s.runOpts())
	if err != nil {
		return nil, err
	}
	s.noteRun(res)
	return res, nil
}

// repairBudget translates Config.RepairBudget into a superstep bound for
// repairing cur's fixpoint: the from-scratch alternative costs about
// cur.Superstep supersteps, so past RepairBudget × that the repair has
// lost the race it exists to win. Zero means unbounded: so is a bound the
// superstep limit would cut first, and +Inf × 0 (NaN). The bound is
// compared as a float, before converting, because a float past the int
// range converts to the most negative int.
func (s *Server) repairBudget(cur *Version) int {
	b := math.Ceil(s.cfg.RepairBudget * float64(cur.Superstep))
	if s.cfg.RepairBudget == 0 || !(b < maxSupersteps) {
		return 0
	}
	return max(int(b), 1)
}

// maxSupersteps is the superstep limit of every run the server starts (the
// VM's default).
const maxSupersteps = 100_000

// runDelta repairs the fixpoint in snap for the mutated graph g, giving
// up past budget body supersteps (0 = unbounded).
func (s *Server) runDelta(ctx context.Context, g *graph.Graph, snap *pregel.Snapshot, applied *graph.AppliedDelta, budget int) (*vm.Result, error) {
	if hookDeltaRepair != nil {
		hookDeltaRepair()
	}
	res, err := vm.RunDeltaContext(ctx, s.cfg.Prog, g, vm.DeltaRunOptions{
		RunOptions:      s.runOpts(),
		Snapshot:        snap,
		Changes:         applied,
		SuperstepBudget: budget,
	})
	if err != nil {
		return nil, err
	}
	s.noteRun(res)
	return res, nil
}

func (s *Server) runOpts() vm.RunOptions {
	return vm.RunOptions{
		MaxSupersteps: maxSupersteps,
		Params:        s.cfg.Params,
		Workers:       s.cfg.Workers,
		Combine:       s.cfg.Combine,
		Quarantine:    s.cfg.Quarantine,
	}
}

// persistBatch appends the flushed batch to the chain: the mutation log
// that explains the graph step plus the repaired fixpoint's snapshot, as
// one atomic commit.
func (s *Server) persistBatch(muts []graph.Mutation, next *Version) error {
	var buf bytes.Buffer
	if err := graph.WriteDeltaLog(&buf, &graph.Delta{Muts: muts}); err != nil {
		return err
	}
	_, _, err := s.chain.AppendBatch(buf.Bytes(), next.snap)
	return err
}

func (s *Server) noteRun(res *vm.Result) {
	if res != nil && res.Stats != nil {
		s.quarantined.Add(int64(res.Stats.Quarantined))
	}
}

// buildVersion freezes a finished run into an immutable Version.
func (s *Server) buildVersion(epoch int64, g *graph.Graph, res *vm.Result, snap *pregel.Snapshot, repaired bool) (*Version, error) {
	fields := make(map[string][]float64, len(s.fields))
	for _, name := range s.fields {
		vec, err := res.FieldVector(name)
		if err != nil {
			return nil, err
		}
		fields[name] = vec
	}
	fp := g.Fingerprint()
	return &Version{
		Epoch:       epoch,
		Fingerprint: fp,
		Superstep:   snap.Superstep,
		Repaired:    repaired,
		Stats:       res.Stats,
		g:           g,
		fields:      fields,
		snap:        snap,
		head:        renderHead(epoch, fp, snap.Superstep),
	}, nil
}

// loop is the background flusher: ticker-driven when BatchInterval is
// set, wake-driven when MaxBatch fills the log.
func (s *Server) loop() {
	defer close(s.loopDone)
	var tick <-chan time.Time
	if s.cfg.BatchInterval > 0 {
		t := time.NewTicker(s.cfg.BatchInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-tick:
		case <-s.wake:
		}
		// Errors are already counted and logged by Flush; a failed batch
		// must not stop the loop.
		_, _ = s.Flush(context.Background())
	}
}

// Close stops the flush loop and retires the published version's graph.
// Pending mutations are not flushed; call Flush first for a clean drain.
func (s *Server) Close() error {
	s.stopOnce.Do(func() {
		s.closed.Store(true)
		close(s.stop)
		<-s.loopDone
		// Serialize with any in-flight Flush before retiring the graph.
		s.repairMu.Lock()
		defer s.repairMu.Unlock()
		if v := s.current.Load(); v != nil {
			v.g.Close()
		}
	})
	return nil
}

// Stats is a point-in-time operational summary.
type Stats struct {
	Epoch       int64    `json:"epoch"`
	Fingerprint string   `json:"fingerprint"`
	Superstep   int      `json:"superstep"`
	Repaired    bool     `json:"repaired"`
	NumVertices int      `json:"vertices"`
	NumArcs     int      `json:"arcs"`
	Repr        string   `json:"repr"`
	Fields      []string `json:"fields"`

	Pending           int   `json:"pending_mutations"`
	Reads             int64 `json:"reads"` // /value and /neighbors requests answered 200
	MutationsAccepted int64 `json:"mutations_accepted"`
	MutationsRejected int64 `json:"mutations_rejected"`
	Batches           int64 `json:"batches"`
	RepairedBatches   int64 `json:"repaired_batches"`
	FallbackBatches   int64 `json:"fallback_batches"`
	// BudgetFallbackBatches counts the subset of FallbackBatches where the
	// repair was abandoned for overrunning Config.RepairBudget.
	BudgetFallbackBatches int64 `json:"budget_fallback_batches"`
	FailedBatches         int64 `json:"failed_batches"`
	Quarantined           int64 `json:"quarantined_vertices"`
	// ChainDir is the checkpoint chain the server persists to ("" when
	// chaining is disabled).
	ChainDir string `json:"chain_dir,omitempty"`

	// Repairability is the program's static delta-capability matrix, one
	// entry per delta class: "repairable (strategy)" or
	// "fallback|unsupported — reason".
	Repairability map[string]string `json:"repairability"`
	// StaticFallbacks counts, per delta class, the batches that admission
	// sent straight to the from-scratch path without attempting repair.
	StaticFallbacks map[string]int64 `json:"static_fallback_batches"`
}

// Stats snapshots the server's counters and the published version.
func (s *Server) Stats() Stats {
	matrix := make(map[string]string, core.NumDeltaClasses)
	statics := make(map[string]int64, core.NumDeltaClasses)
	for c := core.DeltaClass(0); int(c) < core.NumDeltaClasses; c++ {
		cv := s.profile.Verdict(c)
		if cv.Cap == core.Repairable {
			matrix[c.String()] = fmt.Sprintf("repairable (%s)", cv.Strategy)
		} else {
			matrix[c.String()] = fmt.Sprintf("%s — %s", cv.Cap, cv.Reason)
		}
		statics[c.String()] = s.staticFallbacks[c].Load()
	}
	v := s.current.Load()
	return Stats{
		Epoch:                 v.Epoch,
		Fingerprint:           fmt.Sprintf("%016x", v.Fingerprint),
		Superstep:             v.Superstep,
		Repaired:              v.Repaired,
		NumVertices:           v.g.NumVertices(),
		NumArcs:               v.g.NumArcs(),
		Repr:                  v.g.Repr(),
		Fields:                s.fields,
		Pending:               s.Pending(),
		Reads:                 s.reads.Load(),
		MutationsAccepted:     s.mutAccepted.Load(),
		MutationsRejected:     s.mutRejected.Load(),
		Batches:               s.batches.Load(),
		RepairedBatches:       s.repairs.Load(),
		FallbackBatches:       s.fallbacks.Load(),
		BudgetFallbackBatches: s.budgetFallbacks.Load(),
		FailedBatches:         s.failed.Load(),
		Quarantined:           s.quarantined.Load(),
		ChainDir:              s.cfg.ChainDir,
		Repairability:         matrix,
		StaticFallbacks:       statics,
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
