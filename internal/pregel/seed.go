package pregel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// Seed is the state a run starts from, handed to it as a value in
// Options.Seed. A nil Seed is a cold start: superstep 0 runs Init on every
// vertex. Continue and Warm build the other two starts; a checkpoint
// chain's tip is Continue(ChainState.Snapshot) on the graph
// ChainState.Replay rebuilds.
type Seed struct {
	snap *Snapshot

	// Warm-start fields; warm distinguishes the two constructors.
	warm        bool
	frontier    []VertexID
	expectPrint uint64
	allowGrowth bool
}

// Continue resumes the computation s was cut from: the snapshot's graph
// fingerprint, scheduler and aggregator registration are validated against
// the run, inboxes and queues are rebuilt exactly as they stood at the
// barrier — per-vertex message order and queue order included, which is
// what makes resumed float reductions bitwise identical to the
// uninterrupted run — and execution continues at s.Superstep + 1. A Done
// snapshot rehydrates the final vertex values and runs nothing.
func Continue(s *Snapshot) *Seed { return &Seed{snap: s} }

// Warm begins a new computation at superstep 1 from the terminal snapshot
// of a previous, converged run — the delta-recomputation entry point:
// after an edge delta only the frontier vertices run, and the computation
// repairs outward from them. Vertex values come from s, every other vertex
// starts halted with an empty inbox, removed frontier vertices are
// skipped, and an empty frontier converges immediately.
//
// Unlike Continue, the snapshot's scheduler flag, active set and queue are
// ignored (a ScanAll snapshot can warm-start a WorkQueue run) and the
// engine's graph is not fingerprint-checked against s — it is expected to
// differ, since the point is to run on a mutated graph. Instead a non-zero
// expectFingerprint must equal the fingerprint recorded in s: callers pass
// the pre-mutation graph's to prove the snapshot belongs to the graph the
// delta was computed against. s must be terminal (Done) and quiescent: a
// mid-run cut has senders whose recorded state already reflects messages
// their receivers have not folded in, and seeding from it would double- or
// under-count contributions.
//
// allowGrowth accepts a snapshot with fewer vertices than the graph: s
// seeds the prefix it covers and the vertices past s.NumVertices start
// zero-valued and halted, for the caller to initialize and put on the
// frontier (the ΔV repair planner runs init{} for them). Without it a
// grown graph is a mismatch.
func Warm(s *Snapshot, frontier []VertexID, expectFingerprint uint64, allowGrowth bool) *Seed {
	return &Seed{snap: s, warm: true, frontier: frontier, expectPrint: expectFingerprint, allowGrowth: allowGrowth}
}

// applySeed rehydrates the engine from sd before the superstep loop
// starts. Both starts validate and decode the snapshot the same way; they
// differ only in which graph it must belong to and in what becomes of the
// active set, inboxes and superstep. It returns the first superstep to
// execute and leaves e.barrier/e.done describing the state it installed
// (a seed that is already terminal sets e.done, and nothing runs).
func (e *Engine[V, M]) applySeed(sd *Seed) (startStep int, err error) {
	s := sd.snap
	if s == nil {
		return 0, fmt.Errorf("pregel: seed needs a snapshot")
	}
	n := e.g.NumVertices()
	wantPrint := sd.expectPrint
	if !sd.warm {
		wantPrint = e.g.Fingerprint()
	}
	if wantPrint != 0 && s.Fingerprint != wantPrint {
		return 0, fmt.Errorf("%w: run expects a snapshot of graph %016x, snapshot was taken on %016x",
			ErrSnapshotMismatch, wantPrint, s.Fingerprint)
	}
	if sd.warm && !s.Done {
		return 0, fmt.Errorf("%w: warm start needs a terminal (Done) snapshot, got one at superstep %d",
			ErrSnapshotMismatch, s.Superstep)
	}
	// seeded is how many vertices the snapshot covers: all of them, or with
	// allowGrowth a prefix.
	seeded := s.NumVertices
	switch {
	case seeded == n:
	case sd.warm && sd.allowGrowth && n > seeded:
		// Vertex additions ride the repair superstep.
	case sd.warm && n > seeded:
		// The usual way here: an edge delta added vertices and the caller
		// fed the pre-mutation snapshot. Name the count and the remedy
		// instead of letting the size mismatch surface as a confusing decode
		// failure downstream.
		return 0, fmt.Errorf("%w: graph gained %d vertices since the snapshot (%d now, %d at capture); added vertices have no converged state to seed — rerun from scratch instead of warm-starting",
			ErrSnapshotMismatch, n-seeded, n, seeded)
	default:
		return 0, fmt.Errorf("%w: graph has %d vertices, snapshot has %d",
			ErrSnapshotMismatch, n, seeded)
	}
	if len(s.Aggs) != len(e.aggList) {
		return 0, fmt.Errorf("%w: run registers %d aggregators, snapshot has %d",
			ErrSnapshotMismatch, len(e.aggList), len(s.Aggs))
	}
	// The queue section is scheduler-specific: a ScanAll snapshot has no
	// queue for WorkQueue to continue from (it would silently truncate the
	// computation), and the schedulers' active-set semantics differ.
	queue := e.opts.Scheduler == WorkQueue
	if !sd.warm && s.WorkQueue != queue {
		schedName := map[bool]string{false: "scan-all", true: "work-queue"}
		return 0, fmt.Errorf("%w: run uses the %s scheduler, snapshot was taken under %s",
			ErrSnapshotMismatch, schedName[queue], schedName[s.WorkQueue])
	}
	if err := s.checkSections(); err != nil {
		return 0, err
	}
	var inflight int64
	for i := 0; i < len(s.inboxCounts); i += 4 {
		inflight += int64(binary.LittleEndian.Uint32(s.inboxCounts[i:]))
	}
	if sd.warm && inflight != 0 {
		return 0, fmt.Errorf("%w: snapshot is not quiescent (%d in-flight messages); warm starts need a converged fixpoint",
			ErrSnapshotMismatch, inflight)
	}
	if inflight > math.MaxInt32 {
		return 0, fmt.Errorf("%w: inbox count %d overflows", ErrSnapshotCorrupt, inflight)
	}

	b := s.Values
	for i := 0; i < seeded; i++ {
		v, rest, err := e.valCodec.DecodeValue(b)
		if err != nil {
			return 0, fmt.Errorf("pregel: snapshot value %d: %w", i, err)
		}
		if unsafe.Sizeof(v) == 0 && len(rest) == len(b) {
			// A zero-size value read from no bytes: every other one reads
			// the same, from the same bytes, and there is nothing to store.
			break
		}
		e.values[i] = v
		b = rest
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("%w: %d trailing value bytes", ErrSnapshotCorrupt, len(b))
	}
	for _, wk := range e.workers {
		takeBits(wk.rem, s.removed, wk.lo, min(wk.hi, seeded))
	}
	for i, a := range e.aggList {
		a.value = s.Aggs[i]
		if a.persistent {
			a.pending = 0
		} else {
			a.pending = aggIdentity(a.op)
		}
	}

	if sd.warm {
		// Fresh scheduling state: everything halted except the frontier.
		for _, v := range sd.frontier {
			if int(v) >= n {
				return 0, fmt.Errorf("%w: warm start activates vertex %d, graph has %d vertices",
					ErrSnapshotMismatch, v, n)
			}
			wk := e.workers[e.ownerOf(v)]
			li := int(v) - wk.lo
			if hasBit(wk.rem, li) || hasBit(wk.act, li) { // active: duplicate in the frontier
				continue
			}
			setBit(wk.act, li)
			if queue {
				wk.cur = append(wk.cur, v)
			}
		}
		e.activateAll = false
		e.barrier = 0
		return 1, nil
	}

	// Rebuild each worker's active set and inboxes from the active bitset
	// and the inbox counts; payloads sit in s.Inbox vertex-major, which is
	// worker-major, so one sequential decode fills them.
	b = s.Inbox
	for _, wk := range e.workers {
		takeBits(wk.act, s.active, wk.lo, wk.hi)
		n := int32(0)
		counts := s.inboxCounts[4*wk.lo : 4*wk.hi]
		for li := 0; li < wk.hi-wk.lo; li++ {
			if c := binary.LittleEndian.Uint32(counts[4*li:]); c > 0 {
				setBit(wk.got, li)
				wk.msgOff[li] = n
				n += int32(c)
				wk.msgEnd[li] = n
			}
		}
		wk.msgBuf = make([]M, n)
		for j := range wk.msgBuf {
			m, rest, err := e.msgCodec.DecodeValue(b)
			if err != nil {
				return 0, fmt.Errorf("pregel: snapshot inbox of worker %d, message %d: %w", wk.id, j, err)
			}
			wk.msgBuf[j] = m
			b = rest
		}
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("%w: %d trailing inbox bytes", ErrSnapshotCorrupt, len(b))
	}
	// Distribute the work queue, after its count, back to its owners,
	// preserving relative order within each worker.
	for i := 4; i < len(s.queue); i += 4 {
		v := VertexID(binary.LittleEndian.Uint32(s.queue[i:]))
		wk := e.workers[e.ownerOf(v)]
		wk.cur = append(wk.cur, v)
	}
	e.activateAll = s.ActivateAll
	e.stopped = s.Stopped
	e.barrier, e.done = s.Superstep, s.Done
	return s.Superstep + 1, nil
}

// takeBits sets bit u-lo of the worker bitset dst for every vertex u in
// [lo, hi) whose bit is set in the section bitset src, a byte at a time.
func takeBits(dst []uint64, src []byte, lo, hi int) {
	if lo >= hi {
		return
	}
	for i := lo >> 3; i <= (hi-1)>>3; i++ {
		for x := src[i]; x != 0; x &= x - 1 {
			if u := i<<3 + bits.TrailingZeros8(x); u >= lo && u < hi {
				setBit(dst, u-lo)
			}
		}
	}
}
