package pregel

import (
	"math"

	"repro/internal/graph"
)

// Broadcast delivery. Context.BroadcastOut hands the engine one value per
// vertex; the engine picks how it reaches the out-neighbours once per
// superstep, at the post-compute barrier:
//
//   - record: while a worker is recording, a broadcast stores its value at
//     the vertex's block position, sets the vertex's mark bit, appends it to
//     the worker's broadcaster list and adds its out-degree to the record's
//     arcs, which count as sent when the superstep pulls;
//   - decide: pull when the run can (canPull), every worker is still
//     recording and at most 1/pullSlack of the arcs leave vertices that did
//     not broadcast; otherwise push, where every worker sends its recorded
//     broadcasts in record order (cmdReplay) before exchange;
//   - pull: each worker walks its receivers in vertex order and folds the
//     marked in-sources' values per owner worker, in ascending source order,
//     into one inbox entry per owner: exactly the envelope push's fold at
//     send builds for the (sender worker, receiver) pair under ScanAll.
//
// A record is in ascending vertex order, which is what pull folds in. A
// worker's first plain Send, and a broadcast that would break that order (a
// vertex's second one), first push what the worker recorded and stop its
// recording for the superstep, so its send order is the order of the calls.

// pullSlack sets the pull threshold: a superstep pulls when the arcs out of
// vertices that did not broadcast are at most |E|/pullSlack. Pull pays per
// in-arc of every receiver, and a silent in-source costs it a mispredicted
// branch; push pays per sent arc. BenchmarkBroadcast's sweep on R-MAT 16×8
// (4 workers on 2 cores, broadcasters drawn at random, median of 4 runs)
// reads, in ns per message at 8/8, 7/8, 6/8 and 4/8 of the vertices
// broadcasting, pull 8.3/11.1/18.4/25.8 against push 14.7/20.1/20.9/23.9 on
// the compact graph and pull 7.0/10.1/13.2/23.9 against push
// 10.8/10.7/12.5/15.3 on the flat one: from 7/8 up pull is no slower on
// either. PageRank's supersteps broadcast on all arcs, or on 97 % and more
// until the last.
const pullSlack = 8

// delivery overrides the per-superstep rule, for tests and benchmarks only.
type delivery uint8

const (
	deliverAuto delivery = iota // decideDelivery's rule
	deliverPush                 // every superstep pushes: the twin pull is held to
	deliverPull                 // pull whatever the share, where the run allows it
)

// pullable reports whether this run may ever pull: in-process, without
// Quarantine (whose undo log retracts per-arc sends), with a CombinerFunc
// (one class, so one envelope per sender worker and receiver), under
// ScanAll (WorkQueue builds the next queue in envelope order), with an arc
// count the in-source index's int32 offsets hold, and not as the push twin,
// which pushes every broadcast at the call.
func (e *Engine[V, M]) pullable() bool {
	_, oneClass := e.combiner.(CombinerFunc[M])
	return e.shard.count == 1 && !e.opts.Quarantine && oneClass &&
		e.opts.Scheduler == ScanAll && e.g.NumArcs() <= math.MaxInt32 && e.deliver != deliverPush
}

// broadcast is Context.BroadcastOut: record u's value while the worker is
// recording, otherwise push it along u's out-arcs now.
func (w *worker[V, M]) broadcast(u VertexID, m M) {
	deg := w.eng.g.OutDegree(u)
	if deg == 0 {
		return
	}
	if w.recording {
		if n := len(w.blist); n == 0 || w.blist[n-1] < u {
			li := int(u) - w.lo
			if w.bval == nil { // the run's first broadcast on this worker
				w.bval = make([]M, w.hi-w.lo)
				w.bmark = make([]uint64, len(w.act))
			}
			setBit(w.bmark, li)
			w.bval[li] = m
			w.blist = append(w.blist, u)
			w.barcs += deg
			return
		}
		w.flushBroadcasts()
	}
	w.pushOut(u, m)
}

// flushBroadcasts pushes the worker's recorded broadcasts in record order
// and stops its recording for the rest of the superstep.
func (w *worker[V, M]) flushBroadcasts() {
	w.recording = false
	for _, u := range w.blist {
		w.pushOut(u, w.bval[int(u)-w.lo])
	}
	w.clearRecord()
}

// clearRecord unmarks the recorded broadcasters and empties the list.
func (w *worker[V, M]) clearRecord() {
	for _, u := range w.blist {
		clearBit(w.bmark, int(u)-w.lo)
	}
	w.blist = w.blist[:0]
	w.barcs = 0
}

// pushOut sends m along every out-arc of u exactly as send would arc by
// arc, from one decode of u's list.
func (w *worker[V, M]) pushOut(u VertexID, m M) {
	for _, v := range w.eng.g.OutList(u, &w.arcBuf) {
		w.send(v, m)
	}
}

// decideDelivery picks this superstep's delivery (see the top of this file)
// and reports whether the workers must push their records before exchange.
// It runs on the master between the compute and exchange phases.
func (e *Engine[V, M]) decideDelivery() (replay bool) {
	e.pull = false
	arcs, recorded, all := 0, false, true
	for _, wk := range e.workers {
		arcs += wk.barcs
		recorded = recorded || len(wk.blist) > 0
		all = all && wk.recording
	}
	if !recorded {
		return false
	}
	if !all || (e.deliver == deliverAuto && (e.g.NumArcs()-arcs)*pullSlack > e.g.NumArcs()) {
		return true
	}
	if e.inOff == nil {
		e.buildInIndex()
	}
	for _, wk := range e.workers {
		wk.sent += wk.barcs // a recorded broadcast counts where it is delivered
	}
	e.pull = true
	e.pulls++
	return false
}

// buildInIndex lays out every vertex's in-sources, ascending and once per
// parallel arc, as int32 offsets into uint32 sources (4 B per arc and per
// vertex): a counting pass and a placing pass over the out-lists. A compact
// graph's lists are decoded once, by the counting pass, into a transient
// array the placing pass reads back.
func (e *Engine[V, M]) buildInIndex() {
	g, n := e.g, e.g.NumVertices()
	off := make([]int32, n+1)
	src := make([]uint32, g.NumArcs())
	var dst, scratch []VertexID
	if g.IsCompact() {
		dst = make([]VertexID, g.NumArcs())
	}
	for u, at := 0, 0; u < n; u++ {
		scratch = dst[at:at] // u's place in dst: OutList decodes into it
		for _, v := range g.OutList(VertexID(u), &scratch) {
			off[v+1]++
		}
		if dst != nil {
			at += g.OutDegree(VertexID(u))
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	for u, at := 0, 0; u < n; u++ {
		list := dst[at:at]
		if dst != nil {
			list = dst[at : at+g.OutDegree(VertexID(u))]
			at += len(list)
		} else {
			list = g.OutList(VertexID(u), &scratch)
		}
		for _, v := range list {
			src[off[v]] = uint32(u)
			off[v]++
		}
	}
	// Placing advanced each off[v] to the start of v+1's run.
	copy(off[1:], off[:n])
	off[0] = 0
	e.inOff, e.inSrc = off, src
}

// pullInbox is exchange's delivery in a pull superstep: for each live
// receiver, in vertex order, one inbox entry per owner worker holding a
// marked in-source, in worker order, each the fold of those sources' values
// in ascending source order with the first value starting the fold. It
// sets the got and active bits and the counts as pushInbox would.
func (w *worker[V, M]) pullInbox() {
	e := w.eng
	off, end := w.msgOff, w.msgEnd
	inOff, inSrc, block, sum := e.inOff, e.inSrc, e.block, w.sum
	buf := w.msgBuf[:0]
	for li := 0; li < w.hi-w.lo; li++ {
		if hasBit(w.rem, li) {
			continue
		}
		r := w.lo + li
		srcs := inSrc[inOff[r]:inOff[r+1]]
		start := len(buf)
		for i := 0; i < len(srcs); {
			o := e.workers[int(srcs[i])/block]
			base, top := graph.VertexID(o.lo), graph.VertexID(o.hi)
			mark, val := o.bmark, o.bval
			if mark == nil { // o has not broadcast this run
				for i < len(srcs) && srcs[i] < top {
					i++
				}
				continue
			}
			var acc M
			have := false
			for ; i < len(srcs) && srcs[i] < top; i++ {
				s := int(srcs[i] - base)
				if !hasBit(mark, s) {
					continue
				}
				if have {
					acc = sum(acc, val[s])
				} else {
					acc, have = val[s], true
				}
			}
			if have {
				buf = append(buf, acc)
				if o != w {
					w.cross++
				}
			}
		}
		if len(buf) > start {
			setBit(w.got, li)
			setBit(w.act, li)
			off[li], end[li] = int32(start), int32(len(buf))
		}
	}
	w.msgBuf = buf
	w.delivered = len(buf)
}
