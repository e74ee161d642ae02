package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/pregel/transport"
)

// This file is the engine side of multi-process sharding: each process
// (shard) owns a contiguous sub-range of the worker set and runs only
// those workers' goroutines; the remaining worker structs exist as
// message stubs that inbound frames decode into, so the exchange and
// aggregator folds still iterate every worker in global order and the
// sharded run is bit-identical to an in-process run with the same total
// worker count. The wire protocol is two transport barriers per
// superstep — one after compute (data frames + aggregator partials +
// hard-abort flags), one after exchange (merged statistics + deferred
// aborts) — and a final value all-gather on success. See DESIGN.md
// "Sharded message plane".

// ShardOptions place this engine in a multi-process sharded run. Every
// process must run the same program over the same graph with identical
// Options (in particular an explicit, identical Workers count — the
// GOMAXPROCS default would diverge across machines), differing only in
// Index. Checkpoints are per shard (each owns its own snapshot files); a
// Seed works as it does in-process — Continue from this shard's own
// snapshot, Warm from one whole terminal snapshot handed to every shard.
// Quarantine is not supported sharded.
type ShardOptions struct {
	// Index is this process's shard number, in [0, Count).
	Index int
	// Count is the total number of shards. Count == 1 with a Transport
	// routes the single-process run through it (dvrun -shard 0/1);
	// Count == 1 without one is equivalent to no sharding.
	Count int
	// Transport connects this shard to its peers. The engine does not
	// close it; the caller owns its lifecycle (and closing it is what
	// unblocks peers if this process aborts without reaching a barrier).
	Transport transport.Transport
}

// shardState is the per-run sharding bookkeeping hung off the Engine.
// The unsharded path gets a count==1 state routed through the local
// transport, so the superstep loop has exactly one shape.
type shardState struct {
	idx, count  int
	tr          transport.Transport
	wLo, wHi    int   // local worker index range [wLo, wHi)
	workerShard []int // worker id -> owning shard (sharded runs only)

	frameBuf []byte // reusable data-frame / gather scratch
	ctrlBuf  []byte // reusable control-payload scratch
}

func (s *shardState) owns(w int) bool { return w >= s.wLo && w < s.wHi }

// Control payload layout (both barriers):
//
//	u8  kind (1 = post-compute, 2 = post-exchange)
//	u32 superstep
//	u8  flags
//	u16 reason length + reason bytes (abort flags only)
//	kind-specific body
//
// Kind 1 body: u32 aggregator count, u32 worker count, then per local
// worker u32 id + per aggregator (u8 seen, u64 pending bits).
// Kind 2 body: five u64 statistic partials (sent, ran, delivered,
// cross-worker, next-active) summed over the shard's workers.
const (
	ctrlKindBarrier1 byte = 1
	ctrlKindBarrier2 byte = 2

	flagHardAbort    byte = 1 << 0 // abort now, cut inconsistent, no snapshot
	flagPendingAbort byte = 1 << 1 // abort after this barrier, cut consistent
)

// initShard validates Options.Shard and builds the shard state; the
// unsharded run is count==1 over the zero-cost local transport.
func (e *Engine[V, M]) initShard() error {
	so := e.opts.Shard
	w := len(e.workers)
	if so == nil {
		e.shard = &shardState{idx: 0, count: 1, tr: transport.NewLocal(), wLo: 0, wHi: w}
		return nil
	}
	if so.Count < 1 || so.Index < 0 || so.Index >= so.Count {
		return fmt.Errorf("pregel: bad shard %d of %d", so.Index, so.Count)
	}
	if so.Count == 1 {
		tr := so.Transport
		if tr == nil {
			tr = transport.NewLocal()
		}
		e.shard = &shardState{idx: 0, count: 1, tr: tr, wLo: 0, wHi: w}
		return nil
	}
	if so.Transport == nil {
		return errors.New("pregel: sharded run needs a transport")
	}
	if so.Count > w {
		return fmt.Errorf("pregel: %d shards over %d workers; every shard needs at least one", so.Count, w)
	}
	if e.opts.Quarantine {
		return errors.New("pregel: Quarantine is not supported sharded")
	}
	// Frames and the value gather serialize through the codecs even when
	// checkpointing is off.
	if err := e.ensureCodecs(); err != nil {
		return err
	}
	ws := make([]int, w)
	for s := 0; s < so.Count; s++ {
		for i := s * w / so.Count; i < (s+1)*w/so.Count; i++ {
			ws[i] = s
		}
	}
	e.shard = &shardState{
		idx: so.Index, count: so.Count, tr: so.Transport,
		wLo: so.Index * w / so.Count, wHi: (so.Index + 1) * w / so.Count,
		workerShard: ws,
	}
	return nil
}

// localWorkers returns the workers this shard runs goroutines for.
func (e *Engine[V, M]) localWorkers() []*worker[V, M] {
	return e.workers[e.shard.wLo:e.shard.wHi]
}

// ShardInfo returns this engine's shard index and the total shard
// count; (0, 1) for an unsharded engine.
func (e *Engine[V, M]) ShardInfo() (index, count int) {
	if so := e.opts.Shard; so != nil && so.Count > 1 {
		return so.Index, so.Count
	}
	return 0, 1
}

// ShardOwnedRange returns the contiguous global vertex range
// [lo, hi) owned by this shard's workers — the full graph unsharded.
func (e *Engine[V, M]) ShardOwnedRange() (lo, hi int) {
	s := e.shard
	if s == nil || s.count == 1 {
		return 0, e.g.NumVertices()
	}
	if s.wLo >= s.wHi {
		return 0, 0
	}
	return e.workers[s.wLo].lo, e.workers[s.wHi-1].hi
}

// ShardAllGather runs one transport barrier carrying payload and
// returns every shard's payload indexed by shard (the local payload at
// the local index). Valid only outside the superstep loop — callers use
// it after Run to gather per-shard results (e.g. the ΔV VM's state
// rows); every shard must call it the same number of times. The
// returned slices are valid until the next barrier on the transport.
func (e *Engine[V, M]) ShardAllGather(payload []byte) ([][]byte, error) {
	s := e.shard
	if s == nil {
		return [][]byte{payload}, nil
	}
	return s.tr.Barrier(payload)
}

// shardBarrier1 is the post-compute barrier: ship every non-empty
// remote-destined outbox bucket as one data frame, publish aggregator
// partials, then decode the peers' frames into the stub workers so the
// local exchange delivers them in global worker order.
func (e *Engine[V, M]) shardBarrier1() error {
	s := e.shard
	if s.count == 1 {
		_, err := s.tr.Barrier(nil)
		return err
	}
	for _, src := range e.localWorkers() {
		for d := range src.outTo {
			if s.workerShard[d] == s.idx || len(src.outTo[d]) == 0 {
				continue
			}
			s.frameBuf = e.appendDataFrame(s.frameBuf[:0], src, d)
			if err := s.tr.Send(s.workerShard[d], s.frameBuf); err != nil {
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
// exchange abort flags. It returns a non-nil pending error when any
// shard requested a consistent-cut abort at this barrier.
func (e *Engine[V, M]) shardBarrier2(st *StepStats, nextActive *int, pending error) (error, error) {
	s := e.shard
	if s.count == 1 {
		_, err := s.tr.Barrier(nil)
		return nil, err
	}
	s.ctrlBuf = e.appendCtrl2(s.ctrlBuf[:0], st, *nextActive, pending)
	ctrls, err := s.tr.Barrier(s.ctrlBuf)
	if err != nil {
		return nil, err
	}
	remotePending := pending
	for i, c := range ctrls {
		if i == s.idx {
			continue
		}
		reason, flags, err := e.applyCtrl2(i, c, st, nextActive)
		if err != nil {
			return nil, err
		}
		if flags&flagHardAbort != 0 {
			return nil, fmt.Errorf("pregel: aborted by shard %d: %s", i, reason)
		}
		if flags&flagPendingAbort != 0 && remotePending == nil {
			remotePending = fmt.Errorf("pregel: abort requested by shard %d: %s", i, reason)
		}
	}
	return remotePending, nil
}

// shardSignalAbort performs a best-effort barrier carrying a hard-abort
// flag so peers stop at their next barrier instead of hanging; the
// local run then aborts without a snapshot (the cluster-wide cut is
// inconsistent — some shards' compute for this superstep already ran).
func (e *Engine[V, M]) shardSignalAbort(kind byte, cause error) {
	s := e.shard
	if s == nil || s.count == 1 {
		return
	}
	s.ctrlBuf = e.appendAbortCtrl(s.ctrlBuf[:0], kind, cause.Error())
	_, _ = s.tr.Barrier(s.ctrlBuf)
}

// shardGatherValues completes a successful sharded run: every shard
// broadcasts its owned [lo, hi) value range so Values() is whole
// everywhere.
func (e *Engine[V, M]) shardGatherValues() error {
	s := e.shard
	if s == nil || s.count == 1 {
		return nil
	}
	n := e.g.NumVertices()
	lo, hi := e.ShardOwnedRange()
	buf := s.frameBuf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lo))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hi))
	for u := lo; u < hi; u++ {
		buf = e.valCodec.AppendValue(buf, e.values[u])
	}
	s.frameBuf = buf
	ctrls, err := s.tr.Barrier(buf)
	if err != nil {
		return fmt.Errorf("pregel: value gather: %w", err)
	}
	for i, c := range ctrls {
		if i == s.idx {
			continue
		}
		if len(c) < 8 {
			return fmt.Errorf("pregel: value gather: short payload from shard %d", i)
		}
		plo := int(binary.LittleEndian.Uint32(c))
		phi := int(binary.LittleEndian.Uint32(c[4:]))
		if plo > phi || phi > n {
			return fmt.Errorf("pregel: value gather: shard %d claims range [%d, %d)", i, plo, phi)
		}
		rest := c[8:]
		for u := plo; u < phi; u++ {
			v, r, err := e.valCodec.DecodeValue(rest)
			if err != nil {
				return fmt.Errorf("pregel: value gather: shard %d vertex %d: %w", i, u, err)
			}
			e.values[u] = v
			rest = r
		}
		if len(rest) != 0 {
			return fmt.Errorf("pregel: value gather: %d trailing bytes from shard %d", len(rest), i)
		}
	}
	return nil
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
// stub worker, reusing the bucket's capacity.
func (e *Engine[V, M]) applyDataFrame(f []byte) error {
	s := e.shard
	if len(f) < 16 {
		return fmt.Errorf("pregel: short data frame (%d bytes)", len(f))
	}
	step := int(binary.LittleEndian.Uint32(f))
	src := int(binary.LittleEndian.Uint32(f[4:]))
	dst := int(binary.LittleEndian.Uint32(f[8:]))
	count := int(binary.LittleEndian.Uint32(f[12:]))
	if step != e.superstep {
		return fmt.Errorf("pregel: data frame for superstep %d at superstep %d (mismatched shards?)", step, e.superstep)
	}
	if src < 0 || src >= len(e.workers) || s.owns(src) || !s.owns(dst) {
		return fmt.Errorf("pregel: data frame routes worker %d -> %d, not a remote-to-local pair", src, dst)
	}
	rest := f[16:]
	if count < 0 || len(rest) < 4*count {
		return fmt.Errorf("pregel: data frame count %d exceeds payload", count)
	}
	stub := e.workers[src]
	to := stub.outTo[dst][:0]
	msg := stub.outMsg[dst][:0]
	for i := 0; i < count; i++ {
		to = append(to, graph.VertexID(binary.LittleEndian.Uint32(rest[4*i:])))
	}
	rest = rest[4*count:]
	for i := 0; i < count; i++ {
		m, r, err := e.msgCodec.DecodeValue(rest)
		if err != nil {
			return fmt.Errorf("pregel: data frame message %d: %w", i, err)
		}
		msg = append(msg, m)
		rest = r
	}
	if len(rest) != 0 {
		return fmt.Errorf("pregel: %d trailing data frame bytes", len(rest))
	}
	stub.outTo[dst] = to
	stub.outMsg[dst] = msg
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

// decodeCtrlHeader validates the common prefix against the local
// superstep and returns flags, reason, and the kind-specific body.
func (e *Engine[V, M]) decodeCtrlHeader(shard int, kind byte, c []byte) (byte, string, []byte, error) {
	if len(c) < 8 {
		return 0, "", nil, fmt.Errorf("pregel: short control payload from shard %d", shard)
	}
	if c[0] != kind {
		return 0, "", nil, fmt.Errorf("pregel: shard %d sent control kind %d at barrier kind %d", shard, c[0], kind)
	}
	step := int(binary.LittleEndian.Uint32(c[1:]))
	flags := c[5]
	rl := int(binary.LittleEndian.Uint16(c[6:]))
	if len(c) < 8+rl {
		return 0, "", nil, fmt.Errorf("pregel: truncated control payload from shard %d", shard)
	}
	reason := string(c[8 : 8+rl])
	if step != e.superstep {
		return 0, "", nil, fmt.Errorf("pregel: shard %d is at superstep %d, this shard at %d (mismatched resume?)", shard, step, e.superstep)
	}
	return flags, reason, c[8+rl:], nil
}

// appendCtrl1 encodes the post-compute control payload: per-local-
// worker aggregator partials, in worker order, so every shard can fold
// all W workers' contributions identically.
func (e *Engine[V, M]) appendCtrl1(dst []byte) []byte {
	dst = appendCtrlHeader(dst, ctrlKindBarrier1, e.superstep, 0, "")
	locals := e.localWorkers()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.aggList)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(locals)))
	for _, wk := range locals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(wk.id))
		for i := range e.aggList {
			seen := byte(0)
			if wk.aggSeen[i] {
				seen = 1
			}
			dst = append(dst, seen)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(wk.aggPend[i]))
		}
	}
	return dst
}

// applyCtrl1 copies a peer shard's aggregator partials into its stub
// workers (mergeAggregators then folds them in global worker order) and
// surfaces its abort flag.
func (e *Engine[V, M]) applyCtrl1(shard int, c []byte) error {
	flags, reason, body, err := e.decodeCtrlHeader(shard, ctrlKindBarrier1, c)
	if err != nil {
		return err
	}
	if flags&flagHardAbort != 0 {
		return fmt.Errorf("pregel: aborted by shard %d: %s", shard, reason)
	}
	if len(body) < 8 {
		return fmt.Errorf("pregel: truncated aggregator block from shard %d", shard)
	}
	nAggs := int(binary.LittleEndian.Uint32(body))
	nWorkers := int(binary.LittleEndian.Uint32(body[4:]))
	if nAggs != len(e.aggList) {
		return fmt.Errorf("pregel: shard %d registers %d aggregators, this shard %d", shard, nAggs, len(e.aggList))
	}
	body = body[8:]
	per := 4 + 9*nAggs
	if len(body) != nWorkers*per {
		return fmt.Errorf("pregel: aggregator block from shard %d is %d bytes, want %d", shard, len(body), nWorkers*per)
	}
	for w := 0; w < nWorkers; w++ {
		rec := body[w*per:]
		id := int(binary.LittleEndian.Uint32(rec))
		if id < 0 || id >= len(e.workers) || e.shard.workerShard[id] != shard {
			return fmt.Errorf("pregel: shard %d published aggregators for worker %d it does not own", shard, id)
		}
		stub := e.workers[id]
		rec = rec[4:]
		for i := 0; i < nAggs; i++ {
			stub.aggSeen[i] = rec[9*i] != 0
			stub.aggPend[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[9*i+1:]))
		}
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
// step statistics and returns its abort flags.
func (e *Engine[V, M]) applyCtrl2(shard int, c []byte, st *StepStats, nextActive *int) (string, byte, error) {
	flags, reason, body, err := e.decodeCtrlHeader(shard, ctrlKindBarrier2, c)
	if err != nil {
		return "", 0, err
	}
	if flags&flagHardAbort != 0 {
		return reason, flags, nil
	}
	if len(body) != 40 {
		return "", 0, fmt.Errorf("pregel: statistics block from shard %d is %d bytes, want 40", shard, len(body))
	}
	st.MessagesSent += int(binary.LittleEndian.Uint64(body))
	st.ActiveVertices += int(binary.LittleEndian.Uint64(body[8:]))
	st.CombinedMessages += int(binary.LittleEndian.Uint64(body[16:]))
	st.CrossWorker += int(binary.LittleEndian.Uint64(body[24:]))
	*nextActive += int(binary.LittleEndian.Uint64(body[32:]))
	return reason, flags, nil
}

func (e *Engine[V, M]) appendAbortCtrl(dst []byte, kind byte, reason string) []byte {
	return appendCtrlHeader(dst, kind, e.superstep, flagHardAbort, reason)
}
