package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/framing"
	"repro/internal/pregel/transport"
)

// This file is the engine side of multi-process sharding: each process
// (shard) owns a contiguous sub-range of the worker set and runs only
// those workers' goroutines; the remaining worker structs exist as
// message stubs that inbound frames decode into, so the exchange and
// aggregator folds still iterate every worker in global order and the
// sharded run is bit-identical to an in-process run with the same total
// worker count. The wire protocol is two transport barriers per
// superstep — one after compute (data frames, then each local worker's
// aggregator partials and quarantined vertices, or a hard-abort flag),
// one after exchange (merged statistics + deferred aborts) — and one
// per-vertex all-gather (GatherRows) on success. Every peer payload is
// read through wireFormat's bounds-checked reader. See DESIGN.md
// "Sharded message plane".

// ShardOptions place this engine in a multi-process sharded run. Every
// process must run the same program over the same graph with identical
// Options (in particular an explicit, identical Workers count — the
// GOMAXPROCS default would diverge across machines), differing only in
// Index. Every other option composes: checkpoints are per shard (each
// owns its own snapshot files); a Seed works as it does in-process —
// Continue from this shard's own snapshot, Warm from one whole terminal
// snapshot handed to every shard; under Quarantine every shard's Stats
// list every shard's quarantined vertices, in worker order.
type ShardOptions struct {
	// Index is this process's shard number, in [0, Count).
	Index int
	// Count is the total number of shards. Count == 1 is an unsharded
	// run, whatever Transport holds.
	Count int
	// Transport connects this shard to its peers. The engine does not
	// close it; the caller owns its lifecycle (and closing it is what
	// unblocks peers if this process aborts without reaching a barrier).
	Transport transport.Transport
}

// shardState is the per-run sharding bookkeeping hung off the Engine. An
// unsharded run is count 1 with no transport, and every barrier below
// returns at once.
type shardState struct {
	idx, count int
	tr         transport.Transport
	wLo, wHi   int // local worker index range [wLo, wHi)

	frameBuf []byte // reusable data-frame / gather scratch
	ctrlBuf  []byte // reusable control-payload scratch
}

func (s *shardState) owns(w int) bool { return w >= s.wLo && w < s.wHi }

// wireFormat reads every peer payload — data frames, both control kinds
// and the gather — unframed: the transport already delimits them.
var wireFormat = framing.Format{Name: "shard payload", Corrupt: errors.New("pregel: malformed peer payload")}

// Control payload layout (both barriers):
//
//	u8  kind (1 = post-compute, 2 = post-exchange)
//	u32 superstep
//	u8  flags
//	u16 reason length + reason bytes (abort flags only)
//	kind-specific body
//
// Kind 1 body: u32 aggregator count, then for each of the shard's
// workers in order, per aggregator (u8 seen, u64 pending bits), then a
// u32 count and the u32 ids of the vertices it quarantined. Kind 2 body:
// five u64 statistic partials (sent, ran, delivered, cross-worker,
// next-active) summed over the shard's workers. A hard abort carries no
// body.
const (
	ctrlKindBarrier1 byte = 1
	ctrlKindBarrier2 byte = 2

	flagHardAbort    byte = 1 << 0 // abort now, cut inconsistent, no snapshot
	flagPendingAbort byte = 1 << 1 // abort after this barrier, cut consistent
)

// initShard validates Options.Shard and builds the shard state.
func (e *Engine[V, M]) initShard() error {
	w := len(e.workers)
	e.shard = &shardState{count: 1, wHi: w}
	so := e.opts.Shard
	switch {
	case so == nil:
		return nil
	case so.Count < 1 || so.Index < 0 || so.Index >= so.Count:
		return fmt.Errorf("pregel: bad shard %d of %d", so.Index, so.Count)
	case so.Count == 1:
		return nil
	case so.Transport == nil:
		return errors.New("pregel: sharded run needs a transport")
	case so.Count > w:
		return fmt.Errorf("pregel: %d shards over %d workers; every shard needs at least one", so.Count, w)
	}
	// Frames and the gather serialize through the codecs even when
	// checkpointing is off.
	if err := e.ensureCodecs(); err != nil {
		return err
	}
	e.shard = &shardState{idx: so.Index, count: so.Count, tr: so.Transport,
		wLo: so.Index * w / so.Count, wHi: (so.Index + 1) * w / so.Count}
	return nil
}

// localWorkers returns the workers this shard runs goroutines for.
func (e *Engine[V, M]) localWorkers() []*worker[V, M] {
	return e.workers[e.shard.wLo:e.shard.wHi]
}

// shardWorkers returns the workers shard i owns, which the partition
// alone fixes: a peer's payload never says what it owns.
func (e *Engine[V, M]) shardWorkers(i int) []*worker[V, M] {
	w, c := len(e.workers), e.shard.count
	return e.workers[i*w/c : (i+1)*w/c]
}

// shardOf returns the shard that owns worker d: the inverse of
// shardWorkers.
func (e *Engine[V, M]) shardOf(d int) int {
	return ((d+1)*e.shard.count - 1) / len(e.workers)
}

// GatherRows completes per-vertex state after a successful sharded run:
// rows holds width elements per vertex, every shard encodes the rows of
// the vertices its workers own with codec, and one transport barrier
// all-gathers them, so rows is whole on every shard. Each peer's rows
// land in the range the worker partition gives that peer, and a peer's
// payload is decoded whole before any of it is stored. Every shard must
// call it the same number of times, after the run; it does nothing on an
// unsharded engine. The engine gathers its own values with it, and the
// ΔV VM its state rows.
func GatherRows[T, V, M any](e *Engine[V, M], rows []T, width int, codec ValueCodec[T]) error {
	s := e.shard
	if s == nil || s.count == 1 {
		return nil
	}
	owned := func(ws []*worker[V, M]) []T {
		return rows[ws[0].lo*width : ws[len(ws)-1].hi*width]
	}
	buf := s.frameBuf[:0]
	for _, v := range owned(e.localWorkers()) {
		buf = codec.AppendValue(buf, v)
	}
	s.frameBuf = buf
	payloads, err := s.tr.Barrier(buf)
	if err != nil {
		return fmt.Errorf("pregel: gather: %w", err)
	}
	for i, p := range payloads {
		if i != s.idx {
			if err := installRows(owned(e.shardWorkers(i)), p, codec); err != nil {
				return fmt.Errorf("pregel: gather from shard %d: %w", i, err)
			}
		}
	}
	return nil
}

// installRows decodes p into dst, one codec value per element, after a
// first pass has checked that p holds exactly that.
func installRows[T any](dst []T, p []byte, codec ValueCodec[T]) error {
	for _, install := range [2]bool{false, true} {
		r, b := wireFormat.Reader(p), p
		for j := range dst {
			v, rest, err := codec.DecodeValue(b)
			if err != nil {
				r.Fail("row %d: %v", j, err)
				break
			}
			if install {
				dst[j] = v
			}
			b = rest
		}
		r.Take(len(p) - len(b))
		if err := r.End(); err != nil {
			return err
		}
	}
	return nil
}

// shardBarrier1 is the post-compute barrier: ship every non-empty
// remote-destined outbox bucket as one data frame, publish aggregator
// partials and quarantined vertices, then decode the peers' frames into
// the stub workers so the local exchange delivers them in global worker
// order.
func (e *Engine[V, M]) shardBarrier1() error {
	s := e.shard
	if s.count == 1 {
		return nil
	}
	for _, src := range e.localWorkers() {
		for d := range src.outTo {
			if s.owns(d) || len(src.outTo[d]) == 0 {
				continue
			}
			s.frameBuf = e.appendDataFrame(s.frameBuf[:0], src, d)
			if err := s.tr.Send(e.shardOf(d), s.frameBuf); err != nil {
				return err
			}
		}
	}
	s.ctrlBuf = e.appendCtrl1(s.ctrlBuf[:0])
	ctrls, err := s.tr.Barrier(s.ctrlBuf)
	if err != nil {
		return err
	}
	for i, c := range ctrls {
		if i == s.idx {
			continue
		}
		if err := e.applyCtrl1(i, c); err != nil {
			return err
		}
	}
	// Reset the stubs' local-destined buckets, then decode this
	// superstep's inbound frames into them. A peer with nothing to send
	// sends no frame, so the reset is what empties its bucket.
	for _, stub := range e.workers {
		if s.owns(stub.id) {
			continue
		}
		for d := s.wLo; d < s.wHi; d++ {
			stub.outTo[d] = stub.outTo[d][:0]
			stub.outMsg[d] = stub.outMsg[d][:0]
		}
	}
	for {
		f, err := s.tr.Recv()
		if err != nil {
			return err
		}
		if f == nil {
			return nil
		}
		if err := e.applyDataFrame(f); err != nil {
			return err
		}
	}
}

// shardBarrier2 is the post-exchange barrier: merge every shard's
// statistic partials into st/nextActive (so the master hook and the
// termination decision see identical global numbers on every shard) and
// exchange abort flags. It returns pending, or the first peer's request
// when pending is nil, for a consistent-cut abort at this barrier.
func (e *Engine[V, M]) shardBarrier2(st *StepStats, nextActive *int, pending error) (error, error) {
	s := e.shard
	if s.count == 1 {
		return pending, nil
	}
	s.ctrlBuf = e.appendCtrl2(s.ctrlBuf[:0], st, *nextActive, pending)
	ctrls, err := s.tr.Barrier(s.ctrlBuf)
	if err != nil {
		return nil, err
	}
	for i, c := range ctrls {
		if i == s.idx {
			continue
		}
		requested, err := e.applyCtrl2(i, c, st, nextActive)
		if err != nil {
			return nil, err
		}
		if pending == nil {
			pending = requested
		}
	}
	return pending, nil
}

// shardSignalAbort performs a best-effort barrier carrying a hard-abort
// flag so peers stop at their next barrier instead of hanging; the
// local run then aborts without a snapshot (the cluster-wide cut is
// inconsistent — some shards' compute for this superstep already ran).
func (e *Engine[V, M]) shardSignalAbort(kind byte, cause error) {
	s := e.shard
	if s.count == 1 {
		return
	}
	s.ctrlBuf = appendCtrlHeader(s.ctrlBuf[:0], kind, e.superstep, flagHardAbort, cause.Error())
	_, _ = s.tr.Barrier(s.ctrlBuf)
}

// appendDataFrame encodes one worker-pair outbox bucket: the SoA outTo
// array as packed u32s followed by the codec-encoded payloads — for POD
// message types both halves are effectively memcpys.
func (e *Engine[V, M]) appendDataFrame(dst []byte, src *worker[V, M], d int) []byte {
	to, msgs := src.outTo[d], src.outMsg[d]
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.superstep))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(src.id))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(to)))
	for _, t := range to {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
	}
	for _, m := range msgs {
		dst = e.msgCodec.AppendValue(dst, m)
	}
	return dst
}

// applyDataFrame decodes an inbound worker-pair bucket into the sending
// stub worker's emptied bucket, reusing its capacity; the bucket stays
// empty unless the whole frame decodes.
func (e *Engine[V, M]) applyDataFrame(f []byte) error {
	s := e.shard
	r := wireFormat.Reader(f)
	step, src, dst := int(r.U32()), int(r.U32()), int(r.U32())
	count := r.Count(4, "envelope")
	ids := r.Take(4 * count)
	if err := r.Err(); err != nil {
		return fmt.Errorf("pregel: data frame: %w", err)
	}
	if step != e.superstep {
		return fmt.Errorf("pregel: data frame for superstep %d at superstep %d (mismatched shards?)", step, e.superstep)
	}
	if src >= len(e.workers) || s.owns(src) || !s.owns(dst) {
		return fmt.Errorf("pregel: data frame routes worker %d -> %d, not a remote-to-local pair", src, dst)
	}
	stub, recv := e.workers[src], e.workers[dst]
	to, msg := stub.outTo[dst], stub.outMsg[dst]
	if len(to) != 0 {
		return fmt.Errorf("pregel: second data frame for worker pair %d -> %d", src, dst)
	}
	for i := 0; i < count; i++ {
		t := int(binary.LittleEndian.Uint32(ids[4*i:]))
		if t < recv.lo || t >= recv.hi {
			return fmt.Errorf("pregel: data frame for worker %d addresses vertex %d", dst, t)
		}
		to = append(to, VertexID(t))
	}
	// The per-message hot path decodes straight off the unread bytes.
	b := r.Rest()
	for i := 0; i < count; i++ {
		m, rest, err := e.msgCodec.DecodeValue(b)
		if err != nil {
			r.Fail("message %d: %v", i, err)
			break
		}
		msg, b = append(msg, m), rest
	}
	r.Take(len(r.Rest()) - len(b))
	if err := r.End(); err != nil {
		return fmt.Errorf("pregel: data frame %d -> %d: %w", src, dst, err)
	}
	stub.outTo[dst], stub.outMsg[dst] = to, msg
	return nil
}

func appendCtrlHeader(dst []byte, kind byte, superstep int, flags byte, reason string) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(superstep))
	dst = append(dst, flags)
	if len(reason) > 65535 {
		reason = reason[:65535]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(reason)))
	return append(dst, reason...)
}

// readCtrlHeader reads the common prefix of a peer's control payload and
// checks it against the barrier kind and the local superstep, leaving r
// on the body. A hard abort is returned as err, a deferred one as
// pending.
func (e *Engine[V, M]) readCtrlHeader(r *framing.Reader, shard int, kind byte) (pending, err error) {
	k, step, flags := r.U8(), int(r.U32()), r.U8()
	reason := string(r.Take(int(r.U16())))
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("pregel: control payload from shard %d: %w", shard, r.Err())
	case k != kind:
		return nil, fmt.Errorf("pregel: shard %d sent control kind %d at barrier kind %d", shard, k, kind)
	case step != e.superstep:
		return nil, fmt.Errorf("pregel: shard %d is at superstep %d, this shard at %d (mismatched resume?)", shard, step, e.superstep)
	case flags&flagHardAbort != 0:
		return nil, fmt.Errorf("pregel: aborted by shard %d: %s", shard, reason)
	case flags&flagPendingAbort != 0:
		return fmt.Errorf("pregel: abort requested by shard %d: %s", shard, reason), nil
	}
	return nil, nil
}

// appendCtrl1 encodes the post-compute control payload: per-local-
// worker aggregator partials and quarantined vertices, in worker order,
// so every shard can fold all W workers' contributions identically.
func (e *Engine[V, M]) appendCtrl1(dst []byte) []byte {
	dst = appendCtrlHeader(dst, ctrlKindBarrier1, e.superstep, 0, "")
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.aggList)))
	for _, wk := range e.localWorkers() {
		for i := range e.aggList {
			seen := byte(0)
			if wk.aggSeen[i] {
				seen = 1
			}
			dst = append(dst, seen)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(wk.aggPend[i]))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(wk.quarantined)))
		for _, u := range wk.quarantined {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(u))
		}
	}
	return dst
}

// applyCtrl1 copies a peer shard's aggregator partials and quarantined
// vertices into its stub workers (mergeAggregators and drainQuarantined
// then fold them in global worker order) and surfaces its hard abort.
// The body is read once to check it and once to install it, so a refused
// payload leaves the stubs as they were.
func (e *Engine[V, M]) applyCtrl1(shard int, c []byte) error {
	r := wireFormat.Reader(c)
	if _, err := e.readCtrlHeader(r, shard, ctrlKindBarrier1); err != nil {
		return err
	}
	body := r.Rest()
	if err := e.readCtrl1(wireFormat.Reader(body), shard, false); err != nil {
		return err
	}
	return e.readCtrl1(wireFormat.Reader(body), shard, true)
}

// readCtrl1 reads a barrier-1 body from shard, storing it in the stubs
// only when install is set.
func (e *Engine[V, M]) readCtrl1(r *framing.Reader, shard int, install bool) error {
	if n := r.U32(); r.Err() == nil && int(n) != len(e.aggList) {
		return fmt.Errorf("pregel: shard %d registers %d aggregators, this shard %d", shard, n, len(e.aggList))
	}
	for _, stub := range e.shardWorkers(shard) {
		for i := range e.aggList {
			seen, v := r.U8() != 0, r.F64()
			if install {
				stub.aggSeen[i], stub.aggPend[i] = seen, v
			}
		}
		n := r.Count(4, "quarantined vertex")
		if install {
			stub.quarantined = stub.quarantined[:0]
		}
		for j := 0; j < n; j++ {
			u := int(r.U32())
			if u < stub.lo || u >= stub.hi {
				r.Fail("worker %d quarantined vertex %d", stub.id, u)
			}
			if install {
				stub.quarantined = append(stub.quarantined, VertexID(u))
			}
		}
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("pregel: control payload from shard %d: %w", shard, err)
	}
	return nil
}

// appendCtrl2 encodes the post-exchange control payload: this shard's
// statistic partials plus any deferred abort.
func (e *Engine[V, M]) appendCtrl2(dst []byte, st *StepStats, nextActive int, pending error) []byte {
	flags := byte(0)
	reason := ""
	if pending != nil {
		flags = flagPendingAbort
		reason = pending.Error()
	}
	dst = appendCtrlHeader(dst, ctrlKindBarrier2, e.superstep, flags, reason)
	for _, v := range [5]int{st.MessagesSent, st.ActiveVertices, st.CombinedMessages, st.CrossWorker, nextActive} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// applyCtrl2 folds a peer shard's statistic partials into the merged
// step statistics and returns its deferred abort, if it requested one.
func (e *Engine[V, M]) applyCtrl2(shard int, c []byte, st *StepStats, nextActive *int) (pending, err error) {
	r := wireFormat.Reader(c)
	if pending, err = e.readCtrlHeader(r, shard, ctrlKindBarrier2); err != nil {
		return nil, err
	}
	var p [5]int
	for i := range p {
		p[i] = int(r.U64())
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("pregel: control payload from shard %d: %w", shard, err)
	}
	st.MessagesSent += p[0]
	st.ActiveVertices += p[1]
	st.CombinedMessages += p[2]
	st.CrossWorker += p[3]
	*nextActive += p[4]
	return pending, nil
}
