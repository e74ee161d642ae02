package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
	"repro/internal/serve"
)

// The serve workloads keep sssp converged on a weighted R-MAT graph, the
// way dvserve does by default (combiners and quarantine on), with one engine
// worker; the closed-loop reader takes turns with it on the one P.

const serveField = "dist"

// serveEnv is a booted server and what the benchmark needs to drive and
// check it.
type serveEnv struct {
	srv      *serve.Server
	handler  http.Handler
	bootPath string
	chainDir string
	params   map[string]float64
	src      graph.VertexID
	n        int
	batches  [][]graph.Mutation // every batch flushed so far, in order
}

func (e *serveEnv) close() {
	if e != nil && e.srv != nil {
		e.srv.Close()
	}
}

func serveConfig(prog *core.Program, g *graph.Graph, params map[string]float64, chainDir string) serve.Config {
	return serve.Config{
		Prog: prog, Graph: g, Params: params,
		Workers: serveWorkers, Combine: true, Quarantine: true,
		ChainDir: chainDir,
	}
}

func serveRunOpts(params map[string]float64) vm.RunOptions {
	return vm.RunOptions{Params: params, Workers: serveWorkers, Combine: true, Quarantine: true}
}

// bootServer is what an operator's start costs: graph file → compiled
// program → serve.New, which converges from scratch, or replays chainDir
// when it already holds a chain.
func bootServer(tr *tracer, path, chainDir string, params map[string]float64) (srv *serve.Server, err error) {
	var g *graph.Graph
	tr.do("graph.ReadGraphFile", func() { g, err = graph.ReadGraphFile(path, graph.LoadCompact) })
	if err != nil {
		return nil, err
	}
	var prog *core.Program
	tr.do("core.Compile", func() { prog, err = core.Compile(programs.MustSource("sssp"), core.Options{}) })
	if err != nil {
		return nil, err
	}
	tr.do("serve.New", func() { srv, err = serve.New(context.Background(), serveConfig(prog, g, params, chainDir)) })
	if err != nil {
		g.Close()
	}
	return srv, err
}

// writeBootGraph generates the serve workloads' graph, writes it as the
// boot-time file and returns the SSSP source.
func writeBootGraph(c *runCtx, path string) (src graph.VertexID, n int, err error) {
	g := weightedRMAT(c.sz.ServeScale, c.sz.ServeEdgeFactor, c.seed)
	return maxOutDegreeVertex(g), g.NumVertices(), graph.WriteGraphFile(path, g)
}

// coldBoot generates the graph and boots a server on an empty chain
// directory: serve-churn's whole set-up, and the first half of
// serve-restart's.
func coldBoot(c *runCtx, tr *tracer, tag string) (*serveEnv, error) {
	e := &serveEnv{bootPath: c.path(tag + "-boot.dvg"), chainDir: c.path(tag + "-chain")}
	if err := os.RemoveAll(e.chainDir); err != nil {
		return nil, err
	}
	var err error
	if e.src, e.n, err = writeBootGraph(c, e.bootPath); err != nil {
		return nil, err
	}
	e.params = map[string]float64{"src": float64(e.src)}
	if e.srv, err = bootServer(tr, e.bootPath, e.chainDir, e.params); err != nil {
		return nil, err
	}
	e.handler = e.srv.Handler()
	return e, nil
}

// batchOutcome is one Enqueue → Flush as the mutator saw it.
type batchOutcome struct {
	visible  time.Duration // Enqueue start → Flush return: the new epoch is readable
	enqueue  time.Duration
	flush    time.Duration
	repaired bool // classified from the Stats() delta around the Flush
	// What the flush published; digest (of the dist vector's bits) is only
	// taken on the traced pass, for the mirror to compare against.
	epoch       int64
	fingerprint uint64
	digest      uint64
}

// applyBatch sends one batch through the server and classifies it by what
// Stats() says happened, not by what the stream intended.
func (e *serveEnv) applyBatch(tr *tracer, muts []graph.Mutation) (out batchOutcome, err error) {
	var v *serve.Version
	before := e.srv.Stats()
	start := time.Now()
	tr.runOp("op", func() {
		tr.do("serve.Enqueue", func() { _, err = e.srv.Enqueue(muts) })
		out.enqueue = time.Since(start)
		if err != nil {
			return
		}
		tr.do("serve.Flush", func() { v, err = e.srv.Flush(context.Background()) })
	})
	out.visible = time.Since(start)
	out.flush = out.visible - out.enqueue
	if err != nil {
		return out, err
	}
	e.batches = append(e.batches, muts)
	after := e.srv.Stats()
	repaired := after.RepairedBatches - before.RepairedBatches
	fellBack := after.FallbackBatches - before.FallbackBatches
	switch {
	case after.FailedBatches != before.FailedBatches:
		return out, fmt.Errorf("batch %d: server counted a failed batch", len(e.batches))
	case after.Epoch != before.Epoch+1 || v.Epoch != after.Epoch:
		return out, fmt.Errorf("batch %d: epoch went %d → %d (flush returned %d)", len(e.batches), before.Epoch, after.Epoch, v.Epoch)
	case repaired+fellBack != 1:
		return out, fmt.Errorf("batch %d: %d repaired + %d fallback batches counted for one flush", len(e.batches), repaired, fellBack)
	}
	out.repaired = repaired == 1
	out.epoch, out.fingerprint = v.Epoch, v.Fingerprint
	if tr != nil {
		vals, _ := v.Field(serveField)
		out.digest = digestFloats(vals)
	}
	return out, nil
}

// finalGraph applies every flushed batch to the boot-time graph in one
// delta: the graph the server's last epoch must describe.
func (e *serveEnv) finalGraph() (*graph.Graph, error) {
	g, err := graph.ReadGraphFile(e.bootPath, graph.LoadCompact)
	if err != nil {
		return nil, err
	}
	var d graph.Delta
	for _, b := range e.batches {
		d.Muts = append(d.Muts, b...)
	}
	if d.Len() == 0 {
		return g, nil
	}
	g, _, err = graph.ApplyDelta(g, &d)
	return g, err
}

// scratchOracle converges sssp from scratch on g: the answer every epoch of
// that graph must match bit for bit, however it was reached.
func scratchOracle(g *graph.Graph, params map[string]float64) ([]float64, *vm.Result, error) {
	prog, err := core.Compile(programs.MustSource("sssp"), core.Options{})
	if err != nil {
		return nil, nil, err
	}
	res, err := vm.Run(prog, g, serveRunOpts(params))
	if err != nil {
		return nil, nil, err
	}
	vals, err := res.FieldVector(serveField)
	return vals, res, err
}

// checkFinal is the end-of-pass oracle: the published epoch is a
// from-scratch fixpoint of the mirror's final graph, and values read back
// over HTTP are the published ones.
func (e *serveEnv) checkFinal() error {
	g, err := e.finalGraph()
	if err != nil {
		return fmt.Errorf("mirror graph: %w", err)
	}
	v := e.srv.Current()
	if fp := g.Fingerprint(); fp != v.Fingerprint {
		return fmt.Errorf("epoch %d serves graph %016x, mirror has %016x", v.Epoch, v.Fingerprint, fp)
	}
	want, _, err := scratchOracle(g, e.params)
	if err != nil {
		return fmt.Errorf("from-scratch oracle: %w", err)
	}
	got, ok := v.Field(serveField)
	if !ok {
		return fmt.Errorf("server publishes no %q field", serveField)
	}
	if err := sameBits(got, want); err != nil {
		return fmt.Errorf("epoch %d differs from a from-scratch run: %w", v.Epoch, err)
	}
	rd := newReader(e.handler, nil, false)
	for u := 0; u < e.n; u += 1 + e.n/512 {
		val, epoch, err := rd.value(u)
		switch {
		case err != nil:
			return fmt.Errorf("read-back of vertex %d: %w", u, err)
		case epoch != 0 && (epoch != v.Epoch || val != want[u]):
			return fmt.Errorf("read-back of vertex %d: epoch %d value %v, want epoch %d value %v", u, epoch, val, v.Epoch, want[u])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The closed-loop reader.

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// reader issues GET /value/{v}?field=dist (15 of 16) and GET /neighbors/{v}
// (1 of 16) through the server's handler, one at a time. Every reply must be
// a 200, and the epochs it sees must never go backwards.
type reader struct {
	h     http.Handler
	keys  *readKeys
	timed bool // record per-read latency (traced pass only)
	rec   recorder

	reads       atomic.Int64 // read by the mutator's goroutine while the reader runs
	hold        atomic.Bool  // set by the mutator while it is between batches: the reader stands aside
	bad         int
	firstBad    string
	lastEpoch   int64
	valueUS     sample
	neighborsUS sample
}

func newReader(h http.Handler, keys *readKeys, timed bool) *reader {
	return &reader{h: h, keys: keys, timed: timed, rec: recorder{hdr: make(http.Header)}}
}

func (r *reader) get(url string) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	r.rec.code = http.StatusOK
	r.rec.body.Reset()
	r.h.ServeHTTP(&r.rec, req)
	if r.rec.code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, r.rec.code)
	}
	return nil
}

// epochOf scans a reply for its "epoch" member without decoding the rest.
// A /value reply for an unreachable vertex has an empty body (encoding/json
// refuses +Inf, and the handler has already written the 200), so 0 means
// "no epoch in this reply", not an error.
func epochOf(body []byte) int64 {
	i := bytes.Index(body, []byte(`"epoch":`))
	if i < 0 {
		return 0
	}
	var e int64
	for _, ch := range bytes.TrimLeft(body[i+len(`"epoch":`):], " ") {
		if ch < '0' || ch > '9' {
			break
		}
		e = e*10 + int64(ch-'0')
	}
	return e
}

// next issues the next request of the key sequence.
func (r *reader) next() {
	v, neighbors := r.keys.next()
	url := "/value/" + strconv.Itoa(v) + "?field=" + serveField
	if neighbors {
		url = "/neighbors/" + strconv.Itoa(v)
	}
	var start time.Time
	if r.timed {
		start = time.Now()
	}
	err := r.get(url)
	if r.timed {
		if neighbors {
			r.neighborsUS = append(r.neighborsUS, us(time.Since(start)))
		} else {
			r.valueUS = append(r.valueUS, us(time.Since(start)))
		}
	}
	r.reads.Add(1)
	if err == nil {
		if e := epochOf(r.rec.body.Bytes()); e != 0 {
			if e < r.lastEpoch {
				err = fmt.Errorf("GET %s: epoch went back from %d to %d", url, r.lastEpoch, e)
			}
			r.lastEpoch = e
		}
	}
	if err != nil {
		r.bad++
		if r.firstBad == "" {
			r.firstBad = err.Error()
		}
	}
}

// value reads one vertex and decodes the reply; epoch 0 means the value is
// +Inf and the reply was empty.
func (r *reader) value(v int) (val float64, epoch int64, err error) {
	if err := r.get("/value/" + strconv.Itoa(v) + "?field=" + serveField); err != nil {
		return 0, 0, err
	}
	if r.rec.body.Len() == 0 {
		return 0, 0, nil
	}
	var reply struct {
		Epoch int64   `json:"epoch"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(r.rec.body.Bytes(), &reply); err != nil {
		return 0, 0, err
	}
	return reply.Value, reply.Epoch, nil
}

// runUntil reads in a closed loop until stop is closed, then reports on done.
// While hold is set it yields instead of reading: the mutator shares the one
// P with it, and a reference-kernel reading that the scheduler cut in two
// with a 10 ms slice of reads scales its batch by a quarter.
func (r *reader) runUntil(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		default:
			if r.hold.Load() {
				runtime.Gosched()
				continue
			}
			r.next()
		}
	}
}

// ---------------------------------------------------------------------------
// serve-churn

// churnStats is what one pass of the mutator + reader loop measured.
type churnStats struct {
	repairMS, fallbackMS           sample // Enqueue start → Flush return at reference speed, by class
	enqueueUS                      sample
	flushRepairMS, flushFallbackMS sample
	mutations                      int
	visibleS                       float64 // what the batches behind mutations took, at reference speed
	steadyS                        float64 // the time the reader was let read, at reference speed: every batch, failed ones too
	reads                          int     // the reader's completed reads while the mutator ran
	rd                             *reader
	idleReadsPerS                  float64
	outcomes                       []batchOutcome // per batch, in order
	first                          int            // index in e.batches of the pass's first batch
	// Counted over the pass's first exactBatches batches only: the pass is
	// time-boxed, so only a fixed prefix repeats run to run.
	prefixFallbacks, prefixStatic float64
}

func (s *churnStats) batches() int { return len(s.repairMS) + len(s.fallbackMS) }

const (
	exactBatches  = 16 // leading batches of the traced pass the exact counters cover
	mirrorBatches = 32 // leading batches of the traced pass the mirror replays
)

func staticFallbacks(st serve.Stats) float64 {
	total := int64(0)
	for _, n := range st.StaticFallbacks {
		total += n
	}
	return float64(total)
}

// churnPass runs the closed-loop mutator against e for budget while one
// closed-loop reader hammers the handler.
func churnPass(c *runCtx, tr *tracer, e *serveEnv, stream *mutStream, budget time.Duration) *churnStats {
	st := &churnStats{rd: newReader(e.handler, newReadKeys(c.seed, e.n), tr != nil), first: len(e.batches)}
	stop, done := make(chan struct{}), make(chan struct{})
	st.rd.hold.Store(true) // the reader reads while a batch is in the server, and only then
	go st.rd.runUntil(stop, done)

	minBatches := c.sz.MinOps
	if tr != nil {
		minBatches = exactBatches
	}
	staticBefore := staticFallbacks(e.srv.Stats())
	start := time.Now()
	for i := 0; i < minBatches || time.Since(start) < budget; i++ {
		muts := stream.next()
		c.res.attempted++
		var out batchOutcome
		var err error
		var let time.Duration
		k := c.atRefSpeed(func() {
			begin := time.Now()
			st.rd.hold.Store(false)
			out, err = e.applyBatch(tr, muts)
			st.rd.hold.Store(true)
			let = time.Since(begin)
		})
		st.steadyS += k * let.Seconds()
		if err != nil {
			c.res.fail("%v", err)
			continue
		}
		st.mutations += len(muts)
		st.visibleS += k * out.visible.Seconds()
		st.outcomes = append(st.outcomes, out)
		st.enqueueUS = append(st.enqueueUS, us(out.enqueue))
		if out.repaired {
			st.repairMS = append(st.repairMS, k*ms(out.visible))
			st.flushRepairMS = append(st.flushRepairMS, ms(out.flush))
		} else {
			st.fallbackMS = append(st.fallbackMS, k*ms(out.visible))
			st.flushFallbackMS = append(st.flushFallbackMS, ms(out.flush))
		}
		if len(st.outcomes) <= exactBatches {
			if !out.repaired {
				st.prefixFallbacks++
			}
			st.prefixStatic = staticFallbacks(e.srv.Stats()) - staticBefore
		}
	}
	st.reads = int(st.rd.reads.Load())
	st.rd.hold.Store(false)
	if tr != nil {
		// The reader alone, no mutator: the gap to the steady-phase rate is
		// what epoch swaps and repairs cost the readers.
		idleStart := time.Now()
		time.Sleep(500 * time.Millisecond)
		st.idleReadsPerS = float64(int(st.rd.reads.Load())-st.reads) / time.Since(idleStart).Seconds()
	}
	close(stop)
	<-done
	total := int(st.rd.reads.Load())
	c.res.attempted += total
	if st.rd.bad > 0 {
		c.res.failN(st.rd.bad, "%d of %d reads failed, first: %s", st.rd.bad, total, st.rd.firstBad)
	}
	// One more, untimed, additions-only batch: a published Version pins the
	// engine of the run that produced it (Version.Stats points into it), so
	// what the server holds afterwards is ~18 MB larger when the last batch
	// fell back. Ending every pass on a repaired batch makes live_heap_mb
	// describe one state instead of a coin toss between two.
	c.res.attempted++
	if out, err := e.applyBatch(nil, stream.batch(false)); err != nil {
		c.res.fail("closing batch: %v", err)
	} else if !out.repaired {
		c.res.fail("closing batch: an additions-only batch fell back")
	}
	c.res.attempted++
	if err := e.checkFinal(); err != nil {
		c.res.fail("final epoch: %v", err)
	}
	return st
}

func runServeChurn(c *runCtx) error {
	var e *serveEnv
	defer func() { e.close() }()
	if err := c.setup(func() (err error) {
		e.close()
		e, err = coldBoot(c, nil, "churn")
		return err
	}); err != nil {
		return err
	}
	stream := newMutStream(c.seed, e.n, c.sz)
	for i := 0; i < 2; i++ { // warm-up
		if _, err := e.applyBatch(nil, stream.next()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	untracedBudget, tracedBudget := c.budgets()
	st := churnPass(c, nil, e, stream, untracedBudget)
	if _, err := c.reportEndToEnd("repaired", st.repairMS, "fallback", st.fallbackMS, e); err != nil {
		return err
	}
	// Both rates are counts over the time batches were in the server, at
	// reference speed; between batches (drawing the next one, the reference
	// readings) is the benchmark's time, and the reader stands aside.
	c.res.set("mutations_per_s", float64(st.mutations)/st.visibleS)
	c.res.set("reads_per_s", float64(st.reads)/st.steadyS)
	if c.tr == nil {
		return nil
	}
	// A share needs no spans, so it comes from the untraced half, where no
	// mirror work competes for the cores.
	c.res.set("serve.fallback_share", ratio(float64(len(st.fallbackMS)), float64(st.batches())))

	// The traced pass boots its own server and restarts the stream, so its
	// batch i is the untraced pass's batch i and the first exactBatches of
	// them are the same batches on every run of a seed.
	e.close()
	var err error
	c.tr.runOp("boot", func() { e, err = coldBoot(c, c.tr, "traced") })
	if err != nil {
		return fmt.Errorf("traced boot: %w", err)
	}
	stream = newMutStream(c.seed, e.n, c.sz)
	for i := 0; i < 2; i++ {
		if _, err := e.applyBatch(nil, stream.next()); err != nil {
			return fmt.Errorf("traced warm-up: %w", err)
		}
	}
	m, err := newMirror(c, e)
	if err != nil {
		return err
	}
	tst := churnPass(c, c.tr, e, stream, tracedBudget)
	for i, out := range tst.outcomes {
		if i == mirrorBatches {
			break
		}
		m.replay(c, c.tr, e.batches[tst.first+i], out, i < exactBatches)
	}
	c.traceSummary("mirror", st.repairMS, tst.repairMS)

	c.res.set("graph.read_file_ms", c.tr.durations("boot", "graph.ReadGraphFile").median())
	c.res.set("core.compile_ms", c.tr.durations("boot", "core.Compile").median())
	c.res.set("serve.boot_ms", c.tr.durations("boot", "serve.New").median())
	c.res.set("serve.enqueue_us", tst.enqueueUS.median())
	c.res.set("serve.flush_repair_ms", tst.flushRepairMS.median())
	c.res.set("serve.flush_fallback_ms", tst.flushFallbackMS.median())
	c.res.set("serve.reads_per_s_idle", tst.idleReadsPerS)
	c.res.set("serve.read_p50_us", tst.rd.valueUS.median())
	c.res.set("serve.read_p99_us", tst.rd.valueUS.percentile(99))
	c.res.set("serve.read_max_us", tst.rd.valueUS.max())
	c.res.set("serve.neighbors_p50_us", tst.rd.neighborsUS.median())
	c.res.exact("serve.fallback_batches", tst.prefixFallbacks)
	c.res.exact("serve.static_fallback_batches", tst.prefixStatic)
	c.res.exact("serve.failed_batches", float64(e.srv.Stats().FailedBatches))
	m.report(c)
	return reportColdRun(c, e)
}

// reportColdRun fills the vm.* run metrics from a from-scratch converge of
// the boot-time graph: the run serve.New performs on a cold start and, on the
// mutated graph, every fallback batch.
func reportColdRun(c *runCtx, e *serveEnv) error {
	g, err := graph.ReadGraphFile(e.bootPath, graph.LoadCompact)
	if err != nil {
		return err
	}
	var res *vm.Result
	objects, _ := allocDelta(func() { _, res, err = scratchOracle(g, e.params) })
	if err != nil {
		return err
	}
	c.reportEngineStats("vm", res.Stats, ms(res.Stats.Duration), objects)
	return nil
}

// ---------------------------------------------------------------------------
// The mirror: the public functions a flush composes, replayed on the
// benchmark's own copy. It yields the per-layer numbers Server.Flush hides,
// and it is the bit-identity oracle for the traced epochs it covers.

type mirror struct {
	prog   *core.Program
	params map[string]float64
	g      *graph.Graph
	snap   *pregel.Snapshot
	chain  *pregel.ChainWriter

	applyMS, fingerprintMS, runDeltaMS   sample
	encodeMS, decodeMS, diffMS, appendMS sample
	// Over the first exactBatches batches:
	deltaSupersteps, deltaMessages float64
	snapBytes, chainBytes, epochs  float64
}

// newMirror starts a mirror at the server's current epoch: the published
// graph (immutable, so it can be shared) and the chain's tip snapshot.
func newMirror(c *runCtx, e *serveEnv) (*mirror, error) {
	prog, err := core.Compile(programs.MustSource("sssp"), core.Options{})
	if err != nil {
		return nil, err
	}
	tip, err := pregel.LoadChain(e.chainDir)
	if err != nil {
		return nil, fmt.Errorf("mirror: loading the server's chain: %w", err)
	}
	v := e.srv.Current()
	if tip.Snapshot.Fingerprint != v.Fingerprint {
		return nil, fmt.Errorf("mirror: chain tip is for graph %016x, epoch %d serves %016x", tip.Snapshot.Fingerprint, v.Epoch, v.Fingerprint)
	}
	chain, err := pregel.NewChainWriter(c.path("mirror-chain"), 0)
	if err != nil {
		return nil, err
	}
	if _, _, err := chain.AppendSnapshot(tip.Snapshot); err != nil {
		return nil, err
	}
	return &mirror{prog: prog, params: e.params, g: v.Graph(), snap: tip.Snapshot, chain: chain}, nil
}

// sinkBuf keeps the last snapshot a run wrote, as serve's own sink does.
type sinkBuf struct{ b []byte }

func (s *sinkBuf) Write(p []byte) (int, error) {
	s.b = append(s.b[:0], p...)
	return len(p), nil
}

// replay applies one batch the way Server.Flush does — ApplyDelta, then
// RunDelta from the previous snapshot or a from-scratch run when the repair
// is refused, then the chain append — and checks class, fingerprint and
// values against what the server published.
func (m *mirror) replay(c *runCtx, tr *tracer, muts []graph.Mutation, out batchOutcome, exact bool) {
	c.res.attempted++
	var err error
	tr.runOp("mirror", func() { err = m.step(tr, muts, out, exact) })
	if err != nil {
		c.res.fail("mirror of epoch %d: %v", out.epoch, err)
	}
}

func (m *mirror) step(tr *tracer, muts []graph.Mutation, out batchOutcome, exact bool) (err error) {
	var next *graph.Graph
	var applied *graph.AppliedDelta
	m.applyMS = append(m.applyMS, timed(tr, "graph.ApplyDelta", func() {
		next, applied, err = graph.ApplyDelta(m.g, &graph.Delta{Muts: muts})
	}))
	if err != nil {
		return err
	}
	var fp uint64
	m.fingerprintMS = append(m.fingerprintMS, timed(tr, "graph.Fingerprint", func() { fp = next.Fingerprint() }))
	if fp != out.fingerprint {
		return fmt.Errorf("graph fingerprint %016x, server published %016x", fp, out.fingerprint)
	}

	var sink sinkBuf
	opts := serveRunOpts(m.params)
	opts.Checkpoint = pregel.CheckpointOptions{Sink: &sink}
	var res *vm.Result
	d := timed(tr, "vm.RunDelta", func() {
		res, err = vm.RunDelta(m.prog, next, vm.DeltaRunOptions{RunOptions: opts, Snapshot: m.snap, Changes: applied})
	})
	repaired := err == nil
	if repaired {
		m.runDeltaMS = append(m.runDeltaMS, d)
		if exact {
			m.deltaSupersteps += float64(res.Stats.Supersteps)
			m.deltaMessages += float64(res.Stats.MessagesSent)
		}
	} else {
		tr.do("vm.Run", func() { res, err = vm.Run(m.prog, next, opts) })
		if err != nil {
			return err
		}
	}
	if repaired != out.repaired {
		return fmt.Errorf("mirror repaired=%v but the server's Stats() say repaired=%v", repaired, out.repaired)
	}
	var snap *pregel.Snapshot
	m.decodeMS = append(m.decodeMS, timed(tr, "pregel.DecodeSnapshot", func() { snap, _, err = pregel.DecodeSnapshot(sink.b) }))
	if err != nil {
		return err
	}
	var encoded []byte
	m.encodeMS = append(m.encodeMS, timed(tr, "pregel.Snapshot.AppendTo", func() { encoded = snap.AppendTo(nil) }))
	m.diffMS = append(m.diffMS, timed(tr, "pregel.DiffSnapshots", func() { _ = pregel.DiffSnapshots(m.snap, snap) }))
	var log bytes.Buffer
	if err := graph.WriteDeltaLog(&log, &graph.Delta{Muts: muts}); err != nil {
		return err
	}
	var recBytes int
	m.appendMS = append(m.appendMS, timed(tr, "pregel.ChainWriter.AppendBatch", func() {
		_, recBytes, err = m.chain.AppendBatch(log.Bytes(), snap)
	}))
	if err != nil {
		return err
	}
	if exact {
		m.snapBytes = float64(len(encoded))
		m.chainBytes += float64(recBytes + log.Len())
		m.epochs++
	}
	vals, err := res.FieldVector(serveField)
	if err != nil {
		return err
	}
	if d := digestFloats(vals); d != out.digest {
		return fmt.Errorf("published values digest %016x, the mirror's %016x", out.digest, d)
	}
	m.g, m.snap = next, snap
	return nil
}

// timed runs f in a span and returns its duration in milliseconds.
func timed(tr *tracer, name string, f func()) float64 {
	start := time.Now()
	tr.do(name, f)
	return ms(time.Since(start))
}

func (m *mirror) report(c *runCtx) {
	c.res.set("graph.apply_delta_ms", m.applyMS.median())
	c.res.set("graph.fingerprint_ms", m.fingerprintMS.median())
	c.res.exact("graph.bytes_per_arc", ratio(float64(m.g.ArcBytes()), float64(m.g.NumArcs())))
	c.res.set("vm.run_delta_ms", m.runDeltaMS.median())
	c.res.exact("vm.run_delta_supersteps", m.deltaSupersteps)
	c.res.exact("vm.run_delta_messages", m.deltaMessages)
	c.res.set("pregel.snapshot_encode_ms", m.encodeMS.median())
	c.res.set("pregel.snapshot_decode_ms", m.decodeMS.median())
	c.res.exact("pregel.snapshot_bytes", m.snapBytes)
	c.res.set("pregel.diff_snapshots_ms", m.diffMS.median())
	c.res.set("pregel.chain_append_ms", m.appendMS.median())
	c.res.exact("pregel.chain_bytes_per_epoch", ratio(m.chainBytes, m.epochs))
}

// ---------------------------------------------------------------------------
// serve-restart

// restartOp is kill → serving again: boot-time graph file → serve.New over
// the existing chain → the first read answers.
func restartOp(tr *tracer, path, chainDir string, params map[string]float64, src graph.VertexID, wantEpoch int64, want []float64) (*serve.Server, error) {
	srv, err := bootServer(tr, path, chainDir, params)
	if err != nil {
		return nil, err
	}
	rd := newReader(srv.Handler(), nil, false)
	var val float64
	var epoch int64
	tr.do("serve.read", func() { val, epoch, err = rd.value(int(src)) })
	switch {
	case err != nil:
	case epoch != wantEpoch || val != want[src]:
		err = fmt.Errorf("first read: epoch %d value %v, want epoch %d value %v", epoch, val, wantEpoch, want[src])
	default:
		got, _ := srv.Current().Field(serveField)
		err = sameBits(got, want)
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

func runServeRestart(c *runCtx) error {
	var e *serveEnv
	// Set-up is everything before the crash: generate, cold boot, then
	// RestartEpochs batches exactly as serve-churn's mutator sends them.
	if err := c.setup(func() (err error) {
		if e, err = coldBoot(c, nil, "restart"); err != nil {
			return err
		}
		defer e.close()
		stream := newMutStream(c.seed, e.n, c.sz)
		for i := 0; i < c.sz.RestartEpochs; i++ {
			if _, err := e.applyBatch(nil, stream.next()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	e.srv, e.handler = nil, nil // closed; only its files and its batch list are needed from here on
	final, err := e.finalGraph()
	if err != nil {
		return err
	}
	want, _, err := scratchOracle(final, e.params)
	if err != nil {
		return err
	}
	tipEpoch := int64(c.sz.RestartEpochs + 1)

	var last *serve.Server // the server of the last restart stays up for live_heap_mb
	defer func() {
		if last != nil {
			last.Close()
		}
	}()
	// restart runs one restartOp, leaving the restarted server up as last
	// when keep is set.
	restart := func(tr *tracer, keep bool) (float64, bool) {
		c.res.attempted++
		start := time.Now()
		var srv *serve.Server
		var err error
		tr.runOp("op", func() { srv, err = restartOp(tr, e.bootPath, e.chainDir, e.params, e.src, tipEpoch, want) })
		elapsed := time.Since(start)
		if err != nil {
			c.res.fail("restart: %v", err)
			return 0, false
		}
		if keep {
			srv, last = last, srv
		}
		if srv != nil {
			srv.Close()
		}
		return ms(elapsed), true
	}
	for i := 0; i < 2; i++ { // warm-up
		if _, ok := restart(nil, false); !ok {
			return fmt.Errorf("warm-up: %v", c.res.failures)
		}
	}
	untracedBudget, tracedBudget := c.budgets()
	ops := c.timeOps(untracedBudget, func() (float64, bool) { return restart(nil, true) })
	if _, err := c.reportEndToEnd("restart", ops, "", nil, last); err != nil || c.tr == nil {
		return err
	}

	tops := c.timeOps(tracedBudget, func() (float64, bool) { return restart(c.tr, true) })
	// serve.New over a chain is opaque from outside, so the mirror replays it
	// through the public functions it composes; layer coverage is measured
	// there.
	replayMS, err := replayChain(c, e, want)
	if err != nil {
		c.res.fail("chain replay mirror: %v", err)
	}
	c.traceSummary("mirror", ops, tops)
	read := c.tr.durations("op", "graph.ReadGraphFile")
	c.res.set("graph.read_file_ms", read.median())
	c.res.set("graph.decode_mb_per_s", ratio(fileSize(e.bootPath)/1e6, read.median()/1e3))
	c.res.set("core.compile_ms", c.tr.durations("op", "core.Compile").median())
	c.res.set("serve.boot_ms", c.tr.durations("op", "serve.New").median())
	c.res.set("serve.read_p50_us", 1e3*c.tr.durations("op", "serve.read").median())
	c.res.set("serve.restart_replay_ms_per_epoch", ratio(replayMS, float64(c.sz.RestartEpochs)))
	return reportColdRun(c, e)
}

// replayChain does what serve.New does over an existing chain, through the
// public functions: LoadChain, then per persisted batch ReadDeltaLog →
// ApplyDelta → Fingerprint, then SeedFromSnapshot. It returns the graph
// replay time and checks the seeded values against the oracle.
func replayChain(c *runCtx, e *serveEnv, want []float64) (replayMS float64, err error) {
	c.res.attempted++
	tr := c.tr
	tr.runOp("mirror", func() {
		var g *graph.Graph
		tr.do("graph.ReadGraphFile", func() { g, err = graph.ReadGraphFile(e.bootPath, graph.LoadCompact) })
		if err != nil {
			return
		}
		var prog *core.Program
		tr.do("core.Compile", func() { prog, err = core.Compile(programs.MustSource("sssp"), core.Options{}) })
		if err != nil {
			return
		}
		var st *pregel.ChainState
		c.res.set("pregel.chain_load_ms", timed(tr, "pregel.LoadChain", func() { st, err = pregel.LoadChain(e.chainDir) }))
		if err != nil {
			return
		}
		var applyMS, fingerprintMS sample
		for i, payload := range st.GraphDeltas {
			var d *graph.Delta
			replayMS += timed(tr, "graph.ReadDeltaLog", func() { d, err = graph.ReadDeltaLog(bytes.NewReader(payload)) })
			if err != nil {
				return
			}
			applyMS = append(applyMS, timed(tr, "graph.ApplyDelta", func() { g, _, err = graph.ApplyDelta(g, d) }))
			if err != nil {
				return
			}
			var fp uint64
			fingerprintMS = append(fingerprintMS, timed(tr, "graph.Fingerprint", func() { fp = g.Fingerprint() }))
			if fp != st.GraphFingerprints[i] {
				err = fmt.Errorf("graph fingerprint %016x after mutation log %d, chain recorded %016x", fp, i, st.GraphFingerprints[i])
				return
			}
		}
		replayMS += applyMS.sum() + fingerprintMS.sum()
		c.res.set("graph.apply_delta_ms", applyMS.median())
		c.res.set("graph.fingerprint_ms", fingerprintMS.median())
		c.res.exact("graph.bytes_per_arc", ratio(float64(g.ArcBytes()), float64(g.NumArcs())))
		var res *vm.Result
		c.res.set("vm.seed_from_snapshot_ms", timed(tr, "vm.SeedFromSnapshot", func() {
			res, err = vm.SeedFromSnapshot(prog, g, serveRunOpts(e.params), st.Snapshot)
		}))
		if err != nil {
			return
		}
		var vals []float64
		c.res.set("vm.field_vector_ms", timed(tr, "vm.FieldVector", func() { vals, err = res.FieldVector(serveField) }))
		if err == nil {
			err = sameBits(vals, want)
		}
		c.res.exact("pregel.snapshot_bytes", float64(len(st.Snapshot.AppendTo(nil))))
	})
	return replayMS, err
}
