package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// This file is the engine side of checkpointing: copying a consistent
// barrier cut into a Snapshot value and writing it out. Rehydrating a
// fresh Engine from a Snapshot is seed.go; the wire format and codecs live
// in snapshot.go.

// SetValueCodec installs the codec used to serialize vertex values in
// snapshots. When checkpointing or resuming is requested and no codec was
// installed, the engine derives one with PODCodec[V]; types containing
// pointers need an explicit codec.
func (e *Engine[V, M]) SetValueCodec(c ValueCodec[V]) { e.valCodec = c }

// SetMessageCodec installs the codec used to serialize in-flight messages
// in snapshots; derived with PODCodec[M] when absent, as for SetValueCodec.
func (e *Engine[V, M]) SetMessageCodec(c ValueCodec[M]) { e.msgCodec = c }

// Globals returns the current globals value (as installed by SetGlobals or
// replaced by the master hook). Checkpoint Extra callbacks use it to fold
// master-side state into the snapshot.
func (e *Engine[V, M]) Globals() any { return e.globals }

// ensureCodecs derives POD codecs for any codec the caller did not install.
func (e *Engine[V, M]) ensureCodecs() error {
	if e.valCodec == nil {
		c, err := PODCodec[V]()
		if err != nil {
			return fmt.Errorf("pregel: checkpointing needs a value codec (SetValueCodec): %w", err)
		}
		e.valCodec = c
	}
	if e.msgCodec == nil {
		c, err := PODCodec[M]()
		if err != nil {
			return fmt.Errorf("pregel: checkpointing needs a message codec (SetMessageCodec): %w", err)
		}
		e.msgCodec = c
	}
	return nil
}

// fill writes the barrier state the engine holds — that of superstep
// e.barrier — into s's header, aggregates and sections, reusing s's
// buffers. It must only be called with every worker parked: it walks worker
// inboxes and queues without synchronization. Everything is copied, so s
// stays valid after the engine moves on. Extra is left alone: it is the
// caller's payload.
func (e *Engine[V, M]) fill(s *Snapshot) {
	n := e.g.NumVertices()
	s.snapHeader = snapHeader{
		Fingerprint: e.g.Fingerprint(),
		Superstep:   e.barrier,
		NumVertices: n,
		ActivateAll: e.activateAll,
		Stopped:     e.stopped,
		Done:        e.done,
		WorkQueue:   e.opts.Scheduler == WorkQueue,
	}
	s.Aggs = s.Aggs[:0]
	for _, a := range e.aggList {
		s.Aggs = append(s.Aggs, a.value)
	}
	s.active, s.removed = zeroed(s.active, (n+7)/8), zeroed(s.removed, (n+7)/8)
	s.queue = append(s.queue[:0], 0, 0, 0, 0) // the count, set below
	s.inboxCounts = zeroed(s.inboxCounts, 4*n)
	s.Inbox = s.Inbox[:0]
	// Workers own consecutive vertex ranges, so walking them in order, and
	// each one's receivers in vertex order, yields the vertex-major layout
	// of every per-vertex section. Only set bits are visited: a vertex
	// outside got has an empty inbox.
	for _, wk := range e.workers {
		for _, v := range wk.cur {
			s.queue = binary.LittleEndian.AppendUint32(s.queue, uint32(v))
		}
		orBits(s.active, wk.lo, wk.act)
		orBits(s.removed, wk.lo, wk.rem)
		for i, word := range wk.got {
			for ; word != 0; word &= word - 1 {
				li := i<<6 + bits.TrailingZeros64(word)
				lo, hi := wk.msgOff[li], wk.msgEnd[li]
				binary.LittleEndian.PutUint32(s.inboxCounts[4*(wk.lo+li):], uint32(hi-lo))
				for _, m := range wk.msgBuf[lo:hi] {
					s.Inbox = e.msgCodec.AppendValue(s.Inbox, m)
				}
			}
		}
	}
	binary.LittleEndian.PutUint32(s.queue, uint32(len(s.queue)/4-1))
	s.Values = appendValues(s.Values[:0], e.valCodec, e.values)
}

// appendValues appends the encoding of each of vs. A zero-size V has one
// value, so its encoding is made once and repeated.
func appendValues[V any](dst []byte, c ValueCodec[V], vs []V) []byte {
	var zero V
	if unsafe.Sizeof(zero) != 0 || len(vs) == 0 {
		for i := range vs {
			dst = c.AppendValue(dst, vs[i])
		}
		return dst
	}
	start := len(dst)
	dst = c.AppendValue(dst, zero)
	for k, i := len(dst)-start, 1; k > 0 && i < len(vs); i++ {
		dst = append(dst, dst[start:start+k]...)
	}
	return dst
}

// zeroed returns b resized to n zero bytes, reusing its storage.
func zeroed(b []byte, n int) []byte {
	b = slices.Grow(b[:0], n)[:n]
	clear(b)
	return b
}

// orBits sets bit lo+li of the section bitset dst for every bit li set in
// the worker bitset src.
func orBits(dst []byte, lo int, src []uint64) {
	for i, word := range src {
		for ; word != 0; word &= word - 1 {
			setBitAt(dst, lo+i<<6+bits.TrailingZeros64(word))
		}
	}
}

// Snapshot returns, as a value independent of the engine, the barrier
// state a finished run ended on: what a Checkpoint.Sink would have
// received last, minus Extra, which the caller that owns that payload
// appends itself. Feed it to Continue or Warm to start the next run. It is
// valid after Run returned without aborting (an abort can leave a torn
// superstep behind; use Options.Checkpoint for resumable aborts).
func (e *Engine[V, M]) Snapshot() (*Snapshot, error) {
	if e.barrier < 0 || e.stats.Aborted {
		return nil, errors.New("pregel: Snapshot needs a run that reached a barrier and did not abort")
	}
	if err := e.ensureCodecs(); err != nil {
		return nil, err
	}
	s := new(Snapshot)
	e.fill(s)
	return s, nil
}

// capture fills the engine's reusable Snapshot with the current barrier
// state and writes it to the configured Dir chain and/or Sink. The
// Snapshot and encode buffer are reused across captures, so a warmed-up
// Sink capture allocates only for buffer growth.
//
// A barrier is written at most once: the abort and superstep-limit paths
// capture the barrier they stop at, which the periodic capture may have
// written already.
func (e *Engine[V, M]) capture() error {
	if e.captured == e.barrier {
		return nil
	}
	s := &e.snap
	e.fill(s)
	s.Extra = s.Extra[:0]
	ck := &e.opts.Checkpoint
	if ck.Extra != nil {
		s.Extra = ck.Extra(s.Extra)
	}
	if w := ck.Sink; w != nil {
		e.snapBuf = s.AppendTo(e.snapBuf[:0])
		if _, err := w.Write(e.snapBuf); err != nil {
			return fmt.Errorf("pregel: checkpoint sink: %w", err)
		}
	}
	if dir := ck.Dir; dir != "" {
		// The chain writer diffs against the previous capture, so a
		// converged-then-repaired run's records carry only the touched
		// frontier's bytes.
		if e.chain == nil {
			w, err := NewChainWriter(dir, 0)
			if err != nil {
				return fmt.Errorf("pregel: checkpoint chain: %w", err)
			}
			e.chain = w
		}
		path, size, err := e.chain.AppendSnapshot(s)
		if err != nil {
			return fmt.Errorf("pregel: checkpoint chain: %w", err)
		}
		e.stats.CheckpointPath = path
		e.stats.CheckpointBytes += int64(size)
	} else {
		e.stats.CheckpointBytes += int64(len(e.snapBuf))
	}
	// Record which superstep the snapshot just written captured: after an
	// abort, CheckpointPath can name a snapshot many supersteps behind
	// Stats.Supersteps (e.g. the last periodic one before a panic), and
	// resume tooling must not assume the two agree.
	e.stats.CheckpointSuperstep = s.Superstep
	e.captured = e.barrier
	return nil
}
