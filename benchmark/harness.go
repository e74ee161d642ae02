package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/pregel"
)

// metricDef names one metric of BENCHMARK.json. Exact marks a count that
// must repeat bit-for-bit across the ops of a run and across runs of a seed.
type metricDef struct {
	Name  string
	Unit  string
	Exact bool
}

// endToEnd is what a user of the system waits for or pays. The driver wants
// every one of them, never 0, from every workload, so the two timings are
// named by role (the workload table in main.go gives ISSUE 12's name for each
// cell) and a cell the issue leaves empty mirrors the workload's op_ms:
// baseline_ms repeats it and the two rates are the 1000/op_ms ops per second
// of the closed loop, so such a cell can never give a verdict op_ms does not.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "op_ms", Unit: "ms"},
	{Name: "baseline_ms", Unit: "ms"},
	{Name: "mutations_per_s", Unit: "1/s"},
	{Name: "reads_per_s", Unit: "1/s"},
	{Name: "live_heap_mb", Unit: "MB"},
}

// perLayer is measured by the traced pass, from outside: the benchmark times
// its own calls into each layer's public functions. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "graph.read_file_ms", Unit: "ms"},
	{Name: "graph.decode_mb_per_s", Unit: "MB/s"},
	{Name: "graph.apply_delta_ms", Unit: "ms"},
	{Name: "graph.fingerprint_ms", Unit: "ms"},
	{Name: "graph.bytes_per_arc", Unit: "B", Exact: true},

	{Name: "core.compile_ms", Unit: "ms"},
	{Name: "core.repairability_us", Unit: "us"},

	{Name: "vm.new_machine_ms", Unit: "ms"},
	{Name: "vm.run_ms", Unit: "ms"},
	{Name: "vm.field_vector_ms", Unit: "ms"},
	{Name: "vm.supersteps", Unit: "count", Exact: true},
	{Name: "vm.messages_sent", Unit: "count", Exact: true},
	{Name: "vm.messages_delivered", Unit: "count", Exact: true},
	{Name: "vm.active_total", Unit: "count", Exact: true},
	{Name: "vm.combine_ratio", Unit: "ratio"},
	{Name: "vm.ns_per_message", Unit: "ns"},
	{Name: "vm.us_per_superstep", Unit: "us"},
	{Name: "vm.step_ms_max", Unit: "ms"},
	{Name: "vm.allocs_per_superstep", Unit: "count"},
	{Name: "vm.alloc_mb_per_run", Unit: "MB"},
	{Name: "vm.state_bytes_per_vertex", Unit: "B", Exact: true},
	{Name: "vm.heap_bytes_per_vertex", Unit: "B"},
	{Name: "vm.run_delta_ms", Unit: "ms"},
	{Name: "vm.run_delta_supersteps", Unit: "count", Exact: true},
	{Name: "vm.run_delta_messages", Unit: "count", Exact: true},
	{Name: "vm.seed_from_snapshot_ms", Unit: "ms"},

	{Name: "pregel.run_ms", Unit: "ms"},
	{Name: "pregel.ns_per_message", Unit: "ns"},
	{Name: "pregel.allocs_per_superstep", Unit: "count"},
	{Name: "pregel.cross_worker_share", Unit: "ratio"},
	{Name: "pregel.combine_ratio", Unit: "ratio"},
	{Name: "pregel.snapshot_encode_ms", Unit: "ms"},
	{Name: "pregel.snapshot_decode_ms", Unit: "ms"},
	{Name: "pregel.snapshot_bytes", Unit: "B", Exact: true},
	{Name: "pregel.diff_snapshots_ms", Unit: "ms"},
	{Name: "pregel.chain_append_ms", Unit: "ms"},
	{Name: "pregel.chain_bytes_per_epoch", Unit: "B", Exact: true},
	{Name: "pregel.chain_load_ms", Unit: "ms"},

	{Name: "transport.mesh_form_ms", Unit: "ms"},
	{Name: "transport.barrier_rtt_us", Unit: "us"},
	{Name: "transport.send_mb_per_s", Unit: "MB/s"},
	{Name: "transport.wire_bytes_per_superstep", Unit: "B", Exact: true},
	{Name: "transport.wire_frames_per_superstep", Unit: "count", Exact: true},
	{Name: "transport.shard_overhead_x", Unit: "x"},

	{Name: "serve.boot_ms", Unit: "ms"},
	{Name: "serve.enqueue_us", Unit: "us"},
	{Name: "serve.flush_repair_ms", Unit: "ms"},
	{Name: "serve.flush_fallback_ms", Unit: "ms"},
	{Name: "serve.fallback_share", Unit: "ratio"},
	{Name: "serve.fallback_batches", Unit: "count", Exact: true},
	{Name: "serve.static_fallback_batches", Unit: "count", Exact: true},
	{Name: "serve.failed_batches", Unit: "count", Exact: true},
	{Name: "serve.reads_per_s_idle", Unit: "1/s"},
	{Name: "serve.read_p50_us", Unit: "us"},
	{Name: "serve.read_p99_us", Unit: "us"},
	{Name: "serve.read_max_us", Unit: "us"},
	{Name: "serve.neighbors_p50_us", Unit: "us"},
	{Name: "serve.restart_replay_ms_per_epoch", Unit: "ms"},

	{Name: "trace.overhead_pct", Unit: "%"},
	{Name: "trace.layer_coverage_pct", Unit: "%"},
}

// result collects what one run of one workload reports.
type result struct {
	attempted, failed int
	values            map[string]float64
	exactSeen         map[string]bool
	failures          []string
}

func newResult() *result {
	return &result{values: make(map[string]float64), exactSeen: make(map[string]bool)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// fail counts one op that errored, was refused or missed its oracle.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// failN counts n failed ops under one message.
func (r *result) failN(n int, format string, args ...any) {
	r.fail(format, args...)
	r.failed += n - 1
}

// exact records a deterministic count. Every op of a run reports it, and any
// op that disagrees with the first is a failed op: the counters a later
// issue may rest a claim on must repeat.
func (r *result) exact(name string, v float64) {
	if r.exactSeen[name] && r.values[name] != v {
		r.fail("exact counter %s drifted within the run: %v then %v", name, r.values[name], v)
		return
	}
	r.exactSeen[name] = true
	r.values[name] = v
}

// runCtx is everything a workload needs from the command line.
type runCtx struct {
	seed    int64
	seconds float64
	sz      sizes
	dir     string  // scratch directory, removed when the run ends
	tr      *tracer // nil on the untraced pass
	res     *result
	scales  sample // the reference-clock factor of every timed sample so far
}

// atRefSpeed runs f between two readings of the reference kernel
// (refclock.go) and returns the factor that turns a time measured inside f
// into the time it would have taken at the kernel's nominal speed.
func (c *runCtx) atRefSpeed(f func()) float64 {
	k := refScale(f)
	c.scales = append(c.scales, k)
	return k
}

func (c *runCtx) path(name string) string { return filepath.Join(c.dir, name) }

// setup runs build up to Setups times, stopping early once setupBudget is
// spent, and reports the median reference time as setup_s. build must
// overwrite whatever its previous call left, so the products of the last
// call are the run's inputs.
func (c *runCtx) setup(build func() error) error {
	var times sample
	begin := time.Now()
	for i := 0; i < c.sz.Setups && (i == 0 || time.Since(begin) < setupBudget); i++ {
		var took time.Duration
		var err error
		k := c.atRefSpeed(func() {
			start := time.Now()
			err = build()
			took = time.Since(start)
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, k*took.Seconds())
	}
	c.res.set("setup_s", times.median())
	return nil
}

// setupBudget caps the time spent repeating set-up: the driver's schedule
// leaves under ten seconds a run beside the measured seconds, and
// serve-restart's set-up (a 32-epoch chain) alone takes three.
const setupBudget = 2 * time.Second

// loop calls body until budget has passed, and at least MinOps times. The
// loop is closed: the next op starts when the previous one has returned.
func (c *runCtx) loop(budget time.Duration, body func(i int)) {
	start := time.Now()
	for i := 0; i < c.sz.MinOps || time.Since(start) < budget; i++ {
		body(i)
	}
}

// timeOps runs op in a closed loop for budget, each timed section starting
// after a forced collection, and collects the latency (ms) each op reports,
// at reference speed; a failed op reports !ok and leaves no sample.
func (c *runCtx) timeOps(budget time.Duration, op func() (ms float64, ok bool)) (ops sample) {
	c.loop(budget, func(int) { c.timeOp(op, &ops) })
	return ops
}

// timeOp is one step of timeOps, for workloads whose loop alternates ops.
func (c *runCtx) timeOp(op func() (ms float64, ok bool), into *sample) {
	settle()
	var v float64
	var ok bool
	k := c.atRefSpeed(func() { v, ok = op() })
	if ok {
		*into = append(*into, k*v)
	}
}

// reportEndToEnd sets the end-to-end metrics a timed pass yields (setup_s
// comes from setup) and returns the live heap. baseKind is empty and bases
// nil on a workload with one path; serve-churn overwrites the two rates.
// keep is whatever state the heap figure is meant to include.
func (c *runCtx) reportEndToEnd(opKind string, ops sample, baseKind string, bases sample, keep any) (heapMB float64, err error) {
	if len(ops) == 0 || (baseKind != "" && len(bases) == 0) {
		return 0, fmt.Errorf("%d %s and %d %s samples: each needs some (%v)", len(ops), opKind, len(bases), baseKind, c.res.failures)
	}
	reportOps(opKind, ops)
	if baseKind == "" {
		bases = ops
	} else {
		reportOps(baseKind, bases)
	}
	fmt.Fprintf(os.Stderr, "benchmark: the box ran at %.2f of reference speed (median of %d readings; every timing is scaled by its own)\n", c.scales.median(), len(c.scales))
	c.res.set("op_ms", ops.median())
	c.res.set("baseline_ms", bases.median())
	c.res.set("mutations_per_s", 1e3/ops.median())
	c.res.set("reads_per_s", 1e3/ops.median())
	heapMB = liveHeapMB()
	runtime.KeepAlive(keep)
	c.res.set("live_heap_mb", heapMB)
	return heapMB, nil
}

// reportEngineStats fills a layer's run metrics ("vm" for a ΔV run, "pregel"
// for a handwritten one) from the engine statistics of one run that took
// runMS and allocated objects heap objects.
func (c *runCtx) reportEngineStats(layer string, st *pregel.Stats, runMS, objects float64) {
	c.res.set(layer+".run_ms", runMS)
	c.res.set(layer+".ns_per_message", ratio(runMS*1e6, float64(st.MessagesSent)))
	c.res.set(layer+".combine_ratio", ratio(float64(st.CombinedMessages), float64(st.MessagesSent)))
	c.res.set(layer+".allocs_per_superstep", ratio(objects, float64(st.Supersteps)))
	if layer == "pregel" {
		c.res.set("pregel.cross_worker_share", ratio(float64(st.CrossWorker), float64(st.CombinedMessages)))
		return
	}
	c.exactRunCounts(st)
	var steps sample
	for _, s := range st.Steps {
		steps = append(steps, us(s.Duration))
	}
	c.res.set("vm.us_per_superstep", steps.median())
	c.res.set("vm.step_ms_max", steps.max()/1e3)
}

// settle collects the previous op's garbage before the next timed section
// starts. Without it whether a collection lands inside an op depends on how
// much the ops before it allocated, which is an artifact of looping (a user's
// process converges once); with it an op pays only for the collections its
// own allocation triggers.
func settle() { runtime.GC() }

// budgets splits --seconds: the untraced pass measures for all of it, the
// traced pass for half untraced (the base of trace.overhead_pct) and half
// traced.
func (c *runCtx) budgets() (untraced, traced time.Duration) {
	total := time.Duration(c.seconds * float64(time.Second))
	if c.tr == nil {
		return total, 0
	}
	return total / 2, total / 2
}

// liveHeapMB is HeapAlloc after two forced collections (the second frees
// what finalizers and sync.Pool victims held through the first). Callers
// keep the state they want counted reachable past the call with
// runtime.KeepAlive.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// allocDelta runs f and returns the heap objects and bytes it allocated.
func allocDelta(f func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// exactRunCounts records the counts of a ΔV run that must repeat: every op
// of a converge workload reports them, so one that drifts fails the run.
func (c *runCtx) exactRunCounts(st *pregel.Stats) {
	c.res.exact("vm.supersteps", float64(st.Supersteps))
	c.res.exact("vm.messages_sent", float64(st.MessagesSent))
	c.res.exact("vm.messages_delivered", float64(st.CombinedMessages))
	c.res.exact("vm.active_total", float64(st.TotalActive))
}

// traceSummary fills the two trace.* metrics: how much slower traced ops ran
// than untraced ones in the same process, and how much of the op span the
// layers' self times account for (the rest is harness glue between calls).
func (c *runCtx) traceSummary(root string, untraced, traced sample) {
	c.res.set("trace.overhead_pct", 100*ratio(traced.median()-untraced.median(), untraced.median()))
	layers, total := layerSelf(c.tr.spans, root)
	c.res.set("trace.layer_coverage_pct", 100*ratio(float64(total-layers[root]), float64(total)))
}
