package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/pregel/transport"
)

// shard2-dense runs the handwritten PageRank for a fixed number of
// iterations, once in-process and once as two shards meshed over unix
// sockets inside this process — the wire path two dvshard processes use,
// without the process boundary. It is the only workload that exercises
// transport and the only one that bypasses core and vm.

// pageRankValues returns the run's statistics by value: the *Stats an engine
// hands out points into the engine, and keeping it would keep the engine's
// inboxes and outboxes alive.
func pageRankValues(g *graph.Graph, iters int, opts algorithms.RunOptions) ([]float64, pregel.Stats, error) {
	e, st, err := algorithms.RunPageRank(g, iters, opts)
	if err != nil {
		return nil, pregel.Stats{}, err
	}
	vals := make([]float64, g.NumVertices())
	for u, v := range e.Values() {
		vals[u] = v.PR
	}
	return vals, *st, nil
}

// meshPair forms a two-endpoint unix-socket mesh in dir.
func meshPair(dir string, fingerprint uint64) ([2]*transport.Socket, error) {
	addrs := []string{"unix:" + dir + "/s0.sock", "unix:" + dir + "/s1.sock"}
	var socks [2]*transport.Socket
	var errs [2]error
	var wg sync.WaitGroup
	for i := range socks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			socks[i], errs[i] = transport.DialMesh(transport.SocketConfig{
				Shard: i, Count: 2, Addrs: addrs, Fingerprint: fingerprint, Timeout: 10 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeMesh(socks)
			return socks, fmt.Errorf("forming mesh: %w", err)
		}
	}
	return socks, nil
}

func closeMesh(socks [2]*transport.Socket) {
	for _, s := range socks {
		if s != nil {
			s.Close()
		}
	}
}

// shardedRun is one two-shard run as shard 0 saw it.
type shardedRun struct {
	vals      []float64
	stats     pregel.Stats
	framesOut float64 // wire frames and bytes shard 0 sent
	bytesOut  float64
	meshForm  time.Duration
	run       time.Duration // both shards started → both finished; mesh formation excluded
}

func runSharded(tr *tracer, g *graph.Graph, iters int, dir string) (out shardedRun, err error) {
	var socks [2]*transport.Socket
	start := time.Now()
	tr.do("transport.DialMesh", func() { socks, err = meshPair(dir, g.Fingerprint()) })
	out.meshForm = time.Since(start)
	if err != nil {
		return out, err
	}
	defer closeMesh(socks)

	var vals [2][]float64
	var stats [2]pregel.Stats
	var errs [2]error
	start = time.Now()
	tr.do("pregel.Run", func() {
		var wg sync.WaitGroup
		for i := range socks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				vals[i], stats[i], errs[i] = pageRankValues(g, iters, algorithms.RunOptions{
					Workers: shardWorkers, Combine: true,
					Shard: &pregel.ShardOptions{Index: i, Count: 2, Transport: socks[i]},
				})
				if errs[i] != nil {
					socks[i].Close() // unblock the peer's barrier
				}
			}(i)
		}
		wg.Wait()
	})
	out.run = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	if a, b := digestFloats(vals[0]), digestFloats(vals[1]); a != b {
		return out, fmt.Errorf("shard 0 gathered values %016x, shard 1 %016x", a, b)
	}
	frames, bytes, _, _ := socks[0].Counters()
	out.vals, out.stats, out.framesOut, out.bytesOut = vals[0], stats[0], float64(frames), float64(bytes)
	return out, nil
}

func runShard(c *runCtx) error {
	var g *graph.Graph
	if err := c.setup(func() error {
		g = rmat(c.sz.ShardScale, c.sz.ShardEdgeFactor, c.seed)
		socks, err := meshPair(c.dir, g.Fingerprint())
		closeMesh(socks)
		return err
	}); err != nil {
		return err
	}
	// The oracle gets a graph of its own: building the reverse adjacency it
	// needs on g would change what the timed runs hold.
	og := rmat(c.sz.ShardScale, c.sz.ShardEdgeFactor, c.seed)
	og.BuildReverse()
	want := algorithms.PageRankOracle(og, c.sz.ShardIters)

	var lastVals []float64
	var lastStats pregel.Stats
	var inprocObjects float64
	var forms sample // mesh formation, timed apart from every run
	inproc := func(tr *tracer) (perStep float64, ok bool) {
		c.res.attempted++
		start := time.Now()
		var vals []float64
		var st pregel.Stats
		var err error
		tr.runOp("baseline", func() {
			tr.do("pregel.Run", func() {
				inprocObjects, _ = allocDelta(func() {
					vals, st, err = pageRankValues(g, c.sz.ShardIters, algorithms.RunOptions{Workers: shardWorkers, Combine: true})
				})
			})
		})
		elapsed := time.Since(start)
		if err == nil {
			err = within(vals, want, 1e-9)
		}
		if err != nil {
			c.res.fail("in-process run: %v", err)
			return 0, false
		}
		lastVals, lastStats = vals, st
		return ms(elapsed) / float64(st.Supersteps), true
	}
	sharded := func(tr *tracer) (perStep float64, ok bool) {
		c.res.attempted++
		var out shardedRun
		var err error
		tr.runOp("op", func() { out, err = runSharded(tr, g, c.sz.ShardIters, c.dir) })
		if err == nil && lastVals != nil && digestFloats(out.vals) != digestFloats(lastVals) {
			err = fmt.Errorf("digest %016x differs from the in-process run's %016x", digestFloats(out.vals), digestFloats(lastVals))
		}
		if err != nil {
			c.res.fail("sharded run: %v", err)
			return 0, false
		}
		forms = append(forms, ms(out.meshForm))
		c.res.exact("transport.wire_frames_per_superstep", out.framesOut/float64(out.stats.Supersteps))
		c.res.exact("transport.wire_bytes_per_superstep", out.bytesOut/float64(out.stats.Supersteps))
		return ms(out.run) / float64(out.stats.Supersteps), true
	}
	// The two halves alternate, switching which goes first so neither always
	// runs on the heap the other left.
	pass := func(tr *tracer, budget time.Duration) (ops, bases sample) {
		run := func(f func(*tracer) (float64, bool), into *sample) {
			c.timeOp(func() (float64, bool) { return f(tr) }, into)
		}
		c.loop(budget, func(i int) {
			if i%2 == 0 {
				run(sharded, &ops)
				run(inproc, &bases)
			} else {
				run(inproc, &bases)
				run(sharded, &ops)
			}
		})
		return ops, bases
	}
	for i := 0; i < 2; i++ { // warm-up
		_, okIn := inproc(nil)
		_, okSh := sharded(nil)
		if !okIn || !okSh {
			return fmt.Errorf("warm-up: %v", c.res.failures)
		}
	}
	untracedBudget, tracedBudget := c.budgets()
	ops, bases := pass(nil, untracedBudget)
	if _, err := c.reportEndToEnd("sharded", ops, "inproc", bases, []any{g, lastVals}); err != nil || c.tr == nil {
		return err
	}

	forms = nil
	tops, tbases := pass(c.tr, tracedBudget)
	c.traceSummary("op", ops, tops)
	c.res.set("transport.mesh_form_ms", forms.median())
	c.res.set("transport.shard_overhead_x", ratio(tops.median(), tbases.median()))
	c.reportEngineStats("pregel", &lastStats, tbases.median()*float64(lastStats.Supersteps), inprocObjects)
	c.res.exact("graph.bytes_per_arc", ratio(float64(g.ArcBytes()), float64(g.NumArcs())))
	return probeMesh(c, g.Fingerprint())
}

// probeMesh measures the idle socket plane: 1000 empty barrier rounds, then
// 64 KiB frames pushed from shard 0 to shard 1, sixteen per barrier.
func probeMesh(c *runCtx, fingerprint uint64) error {
	socks, err := meshPair(c.dir, fingerprint)
	if err != nil {
		return err
	}
	defer closeMesh(socks)
	both := func(f func(i int, s *transport.Socket) error) (time.Duration, error) {
		var errs [2]error
		var wg sync.WaitGroup
		start := time.Now()
		for i, s := range socks {
			wg.Add(1)
			go func(i int, s *transport.Socket) {
				defer wg.Done()
				if errs[i] = f(i, s); errs[i] != nil {
					s.Close()
				}
			}(i, s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	const rounds = 1000
	var d time.Duration
	c.tr.runOp("probe", func() {
		c.tr.do("transport.Barrier", func() {
			d, err = both(func(_ int, s *transport.Socket) error {
				for r := 0; r < rounds; r++ {
					if _, err := s.Barrier(nil); err != nil {
						return err
					}
				}
				return nil
			})
		})
	})
	if err != nil {
		return fmt.Errorf("barrier probe: %w", err)
	}
	c.res.set("transport.barrier_rtt_us", us(d)/rounds)

	const frameBytes, perBarrier, sendRounds = 64 << 10, 16, 64
	frame := make([]byte, frameBytes)
	c.tr.runOp("probe", func() {
		c.tr.do("transport.Send", func() {
			d, err = both(func(i int, s *transport.Socket) error {
				for r := 0; r < sendRounds; r++ {
					if i == 0 {
						for k := 0; k < perBarrier; k++ {
							if err := s.Send(1, frame); err != nil {
								return err
							}
						}
					}
					if _, err := s.Barrier(nil); err != nil {
						return err
					}
					for got := 0; i == 1; got++ {
						f, err := s.Recv()
						if err != nil {
							return err
						}
						if f == nil {
							if got != perBarrier {
								return fmt.Errorf("round %d delivered %d frames, want %d", r, got, perBarrier)
							}
							break
						}
					}
				}
				return nil
			})
		})
	})
	if err != nil {
		return fmt.Errorf("send probe: %w", err)
	}
	c.res.set("transport.send_mb_per_s", float64(frameBytes*perBarrier*sendRounds)/1e6/d.Seconds())
	return nil
}
