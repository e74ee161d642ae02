package vm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// Checkpoint/restore support. The engine snapshots its own barrier state
// (inboxes, active sets, queues — see internal/pregel/snapshot.go); all ΔV
// vertex state lives in the Machine's flat arrays, not the engine's (empty)
// VState, so the machine rides along in the snapshot's opaque Extra
// payload: the state matrix, the §4.2.1 memo tables, the iteration
// counters, the non-monotone send count, and the master state machine's
// globals (phase / mode / iteration).

// extraVersion versions the Extra payload independently of the engine
// snapshot format.
const extraVersion = 1

// vstateCodec encodes the engine-side vertex value, which is empty.
type vstateCodec struct{}

func (vstateCodec) AppendValue(dst []byte, _ VState) []byte { return dst }

func (vstateCodec) DecodeValue(src []byte) (VState, []byte, error) { return VState{}, src, nil }

// msgCodec is the portable codec for in-flight ΔV messages: a fixed 40-byte
// little-endian record, no struct padding, whatever the machine's payload
// width — slots past the width are zero — so checkpoints and shard frames
// are the same bytes at every width.
type msgCodec[P payload] struct{}

func (msgCodec[P]) AppendValue(dst []byte, m Msg[P]) []byte {
	dst = append(dst, m.Group, m.NVals, m.TagNull, m.TagPrev)
	dst = append(dst, byte(m.Sender), byte(m.Sender>>8), byte(m.Sender>>16), byte(m.Sender>>24))
	for i := 0; i < MaxSlots; i++ {
		var v float64
		if i < len(m.Vals) {
			v = m.Vals[i]
		}
		dst = pregel.AppendFloat64(dst, v)
	}
	return dst
}

func (msgCodec[P]) DecodeValue(src []byte) (Msg[P], []byte, error) {
	var m Msg[P]
	if len(src) < 8+8*MaxSlots {
		return m, nil, fmt.Errorf("%w: truncated ΔV message", pregel.ErrSnapshotCorrupt)
	}
	m.Group, m.NVals, m.TagNull, m.TagPrev = src[0], src[1], src[2], src[3]
	m.Sender = graph.VertexID(src[4]) | graph.VertexID(src[5])<<8 |
		graph.VertexID(src[6])<<16 | graph.VertexID(src[7])<<24
	src = src[8:]
	for i := 0; i < MaxSlots; i++ {
		v, rest, err := pregel.DecodeFloat64(src)
		if err != nil {
			return m, nil, err
		}
		src = rest
		switch {
		case i < len(m.Vals):
			m.Vals[i] = v
		case math.Float64bits(v) != 0:
			return m, nil, fmt.Errorf("%w: ΔV message slot %d is past the program's %d-slot width", pregel.ErrSnapshotCorrupt, i, len(m.Vals))
		}
	}
	return m, src, nil
}

// encodeExtra appends the machine payload to dst. Memo-table maps are
// serialized in ascending key order so the bytes are deterministic.
func (m *Machine) encodeExtra(dst []byte, gl *globals) []byte {
	dst = pregel.AppendInt64(dst, extraVersion)
	dst = pregel.AppendInt64(dst, int64(gl.Phase))
	dst = pregel.AppendInt64(dst, int64(gl.Mode))
	dst = pregel.AppendInt64(dst, int64(gl.Iter))
	dst = pregel.AppendInt64(dst, m.nonMonotone.Load())
	dst = pregel.AppendInt64(dst, int64(len(m.iterations)))
	for _, it := range m.iterations {
		dst = pregel.AppendInt64(dst, int64(it))
	}
	dst = pregel.AppendInt64(dst, int64(len(m.state)))
	for _, v := range m.state {
		dst = pregel.AppendFloat64(dst, v)
	}
	if m.tables == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = pregel.AppendInt64(dst, int64(len(m.tables)))
	var keys []uint32
	for _, per := range m.tables {
		dst = pregel.AppendInt64(dst, int64(len(per)))
		for _, tbl := range per {
			dst = pregel.AppendInt64(dst, int64(len(tbl)))
			keys = keys[:0]
			for k := range tbl { //lint:allow maprange — keys sorted below before encoding
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				dst = pregel.AppendInt64(dst, int64(k))
				dst = pregel.AppendFloat64(dst, tbl[k])
			}
		}
	}
	return dst
}

// restoreExtra decodes an Extra payload produced by encodeExtra into the
// machine and returns the restored master globals. Every dimension is
// validated against this machine's program and graph. oldN is the vertex
// count the snapshot covers: it equals the machine's graph size for
// ordinary resumes, and the pre-mutation size for a delta run whose
// mutation added vertices — the decoded state then seeds the prefix and
// the planner initializes the rest.
func (m *Machine) restoreExtra(b []byte, oldN int) (*globals, error) {
	if oldN < 0 || oldN > m.g.NumVertices() {
		return nil, fmt.Errorf("vm: snapshot extra: snapshot covers %d vertices, graph has %d", oldN, m.g.NumVertices())
	}
	rd := func(what string) (int64, error) {
		v, rest, err := pregel.DecodeInt64(b)
		if err != nil {
			return 0, fmt.Errorf("vm: snapshot extra: %s: %w", what, err)
		}
		b = rest
		return v, nil
	}
	rdf := func(what string) (float64, error) {
		v, rest, err := pregel.DecodeFloat64(b)
		if err != nil {
			return 0, fmt.Errorf("vm: snapshot extra: %s: %w", what, err)
		}
		b = rest
		return v, nil
	}
	ver, err := rd("version")
	if err != nil {
		return nil, err
	}
	if ver != extraVersion {
		return nil, fmt.Errorf("vm: snapshot extra version %d, want %d (was the snapshot taken by a ΔV run?)", ver, extraVersion)
	}
	gl := &globals{}
	phase, err := rd("phase")
	if err != nil {
		return nil, err
	}
	mode, err := rd("mode")
	if err != nil {
		return nil, err
	}
	iter, err := rd("iter")
	if err != nil {
		return nil, err
	}
	if phase < 0 || phase >= int64(len(m.prog.Phases)) {
		return nil, fmt.Errorf("vm: snapshot extra: phase %d out of range", phase)
	}
	if mode != int64(modePrime) && mode != int64(modeBody) {
		return nil, fmt.Errorf("vm: snapshot extra: unknown mode %d", mode)
	}
	gl.Phase, gl.Mode, gl.Iter = int(phase), stepMode(mode), int(iter)
	nonMono, err := rd("non-monotone count")
	if err != nil {
		return nil, err
	}
	m.nonMonotone.Store(nonMono)
	nIter, err := rd("iteration count")
	if err != nil {
		return nil, err
	}
	if nIter != int64(len(m.iterations)) {
		return nil, fmt.Errorf("vm: snapshot extra: %d phase counters, program has %d", nIter, len(m.iterations))
	}
	for i := range m.iterations {
		v, err := rd("iterations")
		if err != nil {
			return nil, err
		}
		m.iterations[i] = int(v)
	}
	nState, err := rd("state size")
	if err != nil {
		return nil, err
	}
	if nState != int64(oldN*m.stride) {
		return nil, fmt.Errorf("vm: snapshot extra: state size %d, machine needs %d (different program or graph?)", nState, oldN*m.stride)
	}
	for i := 0; i < oldN*m.stride; i++ {
		if m.state[i], err = rdf("state"); err != nil {
			return nil, err
		}
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("vm: snapshot extra: missing memo-table flag")
	}
	hasTables := b[0]
	b = b[1:]
	switch {
	case hasTables == 0 && m.tables == nil:
		// Both sides agree: no memo tables.
	case hasTables == 1 && m.tables != nil:
		nSites, err := rd("site count")
		if err != nil {
			return nil, err
		}
		if nSites != int64(len(m.tables)) {
			return nil, fmt.Errorf("vm: snapshot extra: %d memo-table sites, program has %d", nSites, len(m.tables))
		}
		for site := range m.tables {
			nVerts, err := rd("table vertex count")
			if err != nil {
				return nil, err
			}
			if nVerts != int64(oldN) {
				return nil, fmt.Errorf("vm: snapshot extra: memo tables for %d vertices, want %d", nVerts, oldN)
			}
			for u := 0; u < oldN; u++ {
				entries, err := rd("table size")
				if err != nil {
					return nil, err
				}
				if entries < 0 || entries > int64(oldN) {
					return nil, fmt.Errorf("vm: snapshot extra: memo table with %d entries", entries)
				}
				var tbl map[graph.VertexID]float64
				if entries > 0 {
					tbl = make(map[graph.VertexID]float64, entries)
				}
				for j := int64(0); j < entries; j++ {
					k, err := rd("table key")
					if err != nil {
						return nil, err
					}
					if k < 0 || k >= int64(oldN) {
						return nil, fmt.Errorf("vm: snapshot extra: memo key %d out of range", k)
					}
					v, err := rdf("table value")
					if err != nil {
						return nil, err
					}
					tbl[graph.VertexID(k)] = v
				}
				m.tables[site][u] = tbl
			}
		}
	default:
		return nil, fmt.Errorf("vm: snapshot extra: memo-table flag %d does not match program mode", hasTables)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("vm: snapshot extra: %d trailing bytes", len(b))
	}
	return gl, nil
}

// SeedFromSnapshot rehydrates a finished run from its terminal snapshot
// without re-executing anything: the returned Result serves Field /
// FieldVector reads exactly as the run that captured the snapshot would,
// and its machine state is the valid seed for a subsequent RunDelta.
// This is how a restarted server boots from a checkpoint chain instead of
// recomputing from scratch. The snapshot must be a Done cut of the same
// compiled program (same mode) on the same graph.
func SeedFromSnapshot(prog *core.Program, g *graph.Graph, opts RunOptions, snap *pregel.Snapshot) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("vm: seed needs a snapshot")
	}
	m, err := NewMachine(prog, g, opts)
	if err != nil {
		return nil, err
	}
	if snap.Fingerprint != g.Fingerprint() {
		return nil, fmt.Errorf("vm: %w: snapshot was taken on graph %016x, machine runs on %016x",
			pregel.ErrSnapshotMismatch, snap.Fingerprint, g.Fingerprint())
	}
	if !snap.Done {
		return nil, fmt.Errorf("vm: %w: seed needs a terminal (Done) snapshot, got one at superstep %d",
			pregel.ErrSnapshotMismatch, snap.Superstep)
	}
	gl, err := m.restoreExtra(snap.Extra, g.NumVertices())
	if err != nil {
		return nil, err
	}
	if gl.Mode != modeBody {
		return nil, fmt.Errorf("vm: seed needs the snapshot of a completed body phase")
	}
	return &Result{
		Stats:            &pregel.Stats{Supersteps: 0},
		Iterations:       m.iterations,
		NonMonotoneSends: m.nonMonotone.Load(),
		machine:          m,
		end:              snap,
		endGlobals:       gl,
	}, nil
}
