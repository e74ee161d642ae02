package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/core"
	"repro/internal/framing"
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

// encodeExtra appends the machine payload to dst. Memo-table maps are
// serialized in ascending key order so the bytes are deterministic.
func (m *Machine) encodeExtra(dst []byte, gl *globals) []byte {
	// Room for all but the memo tables: the header, the state matrix and
	// the memo-table flag.
	dst = slices.Grow(dst, extraHead(m)+8*len(m.state)+1)
	dst = m.appendExtraHead(dst, gl)
	dst = appendFloat64s(dst, m.state)
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

// extraHead is the length of the payload's header: seven words and the
// phase counters.
func extraHead(m *Machine) int { return 8 * (7 + len(m.iterations)) }

// appendExtraHead appends the payload's header, which ends with the length
// of the state matrix that follows it.
func (m *Machine) appendExtraHead(dst []byte, gl *globals) []byte {
	dst = pregel.AppendInt64(dst, extraVersion)
	dst = pregel.AppendInt64(dst, int64(gl.Phase))
	dst = pregel.AppendInt64(dst, int64(gl.Mode))
	dst = pregel.AppendInt64(dst, int64(gl.Iter))
	dst = pregel.AppendInt64(dst, m.nonMonotone.Load())
	dst = pregel.AppendInt64(dst, int64(len(m.iterations)))
	for _, it := range m.iterations {
		dst = pregel.AppendInt64(dst, int64(it))
	}
	return pregel.AppendInt64(dst, int64(len(m.state)))
}

// newState allocates the machine's n-float state matrix. On a
// little-endian host, outside MemoTable mode, it is the middle of
// m.extra, laid out as the payload (its memo-table flag, the last byte,
// is 0): a finished run writes the header in front of the state
// (sealExtra) instead of copying the state into a payload.
func (m *Machine) newState(n int) []float64 {
	if !hostLittleEndian || m.tables != nil {
		return make([]float64, n)
	}
	head := extraHead(m)
	m.extra = make([]byte, head+8*n+1)
	return unsafe.Slice((*float64)(unsafe.Pointer(&m.extra[head])), n)
}

// sealExtra completes m.extra, if the state lives there, as the payload of
// the run that just finished at globals gl.
func (m *Machine) sealExtra(gl *globals) {
	if m.extra != nil {
		m.appendExtraHead(m.extra[:0], gl)
	}
}

// hostLittleEndian reports whether the host stores a float64 as the
// little-endian bytes the payload holds, so a block of them is one copy.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes is vs's memory as bytes.
func float64Bytes(vs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// appendFloat64s appends vs to dst as one block of little-endian float64s,
// the bytes pregel.AppendFloat64 writes one value at a time.
func appendFloat64s(dst []byte, vs []float64) []byte {
	if hostLittleEndian {
		return append(dst, float64Bytes(vs)...)
	}
	off := len(dst)
	dst = slices.Grow(dst, 8*len(vs))[:off+8*len(vs)]
	b := dst[off:]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return dst
}

// extraFormat reads the Extra payload: unframed (it rides inside a DVSNAP
// frame), its rejections wrapping pregel.ErrSnapshotCorrupt.
var extraFormat = framing.Format{Name: "vm: snapshot extra", Corrupt: pregel.ErrSnapshotCorrupt}

// extraError rejects an Extra payload. kind is pregel.ErrSnapshotCorrupt
// for bytes encodeExtra never writes, pregel.ErrSnapshotMismatch for a
// well-formed payload of another program or graph.
func extraError(kind error, format string, args ...any) error {
	return fmt.Errorf("vm: snapshot extra: %w: %s", kind, fmt.Sprintf(format, args...))
}

// restoreExtra decodes an Extra payload produced by encodeExtra into the
// machine and returns the restored master globals. Every dimension is
// validated against this machine's program and graph, and every rejection
// wraps pregel.ErrSnapshotCorrupt or pregel.ErrSnapshotMismatch. oldN is
// the vertex count the snapshot covers: it equals the machine's graph size
// for ordinary resumes, and the pre-mutation size for a delta run whose
// mutation added vertices — the decoded state then seeds the prefix and
// the planner initializes the rest.
func (m *Machine) restoreExtra(b []byte, oldN int) (*globals, error) {
	corrupt, mismatch := pregel.ErrSnapshotCorrupt, pregel.ErrSnapshotMismatch
	if oldN < 0 || oldN > m.g.NumVertices() {
		return nil, extraError(mismatch, "snapshot covers %d vertices, graph has %d", oldN, m.g.NumVertices())
	}
	r := extraFormat.Reader(b)
	if ver := r.I64(); r.Err() == nil && ver != extraVersion {
		return nil, extraError(corrupt, "version %d, want %d (was the snapshot taken by a ΔV run?)", ver, extraVersion)
	}
	phase, mode, iter := r.I64(), r.I64(), r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if phase < 0 || phase >= int64(len(m.prog.Phases)) {
		return nil, extraError(mismatch, "phase %d out of range, program has %d", phase, len(m.prog.Phases))
	}
	if mode != int64(modePrime) && mode != int64(modeBody) {
		return nil, extraError(corrupt, "unknown mode %d", mode)
	}
	gl := &globals{Phase: int(phase), Mode: stepMode(mode), Iter: int(iter)}
	m.nonMonotone.Store(r.I64())
	if nIter := r.I64(); r.Err() == nil && nIter != int64(len(m.iterations)) {
		return nil, extraError(mismatch, "%d phase counters, program has %d", nIter, len(m.iterations))
	}
	for i := range m.iterations {
		m.iterations[i] = int(r.I64())
	}
	if nState := r.I64(); r.Err() == nil && nState != int64(oldN*m.stride) {
		return nil, extraError(mismatch, "state size %d, machine needs %d (different program or graph?)", nState, oldN*m.stride)
	}
	state := m.state[:oldN*m.stride]
	if raw := r.Take(8 * len(state)); raw != nil && hostLittleEndian {
		copy(float64Bytes(state), raw)
	} else if raw != nil {
		for i := range state {
			state[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	switch hasTables := r.U8(); {
	case r.Err() != nil:
	case hasTables == 0 && m.tables == nil:
		// Both sides agree: no memo tables.
	case hasTables == 1 && m.tables != nil:
		if nSites := r.I64(); r.Err() == nil && nSites != int64(len(m.tables)) {
			return nil, extraError(mismatch, "%d memo-table sites, program has %d", nSites, len(m.tables))
		}
		for site := range m.tables {
			if nVerts := r.I64(); r.Err() == nil && nVerts != int64(oldN) {
				return nil, extraError(mismatch, "memo tables for %d vertices, want %d", nVerts, oldN)
			}
			for u := 0; u < oldN && r.Err() == nil; u++ {
				// Each entry is a key and a value, 16 bytes: the count is
				// checked against the payload before it sizes a map.
				entries := r.Count64(16, "memo table entry")
				if entries > oldN {
					r.Fail("memo table with %d entries", entries)
				}
				var tbl map[graph.VertexID]float64
				if entries > 0 && r.Err() == nil {
					tbl = make(map[graph.VertexID]float64, entries)
				}
				for j := 0; j < entries && r.Err() == nil; j++ {
					k, v := r.I64(), r.F64()
					if k < 0 || k >= int64(oldN) {
						r.Fail("memo key %d out of range", k)
					}
					tbl[graph.VertexID(k)] = v
				}
				m.tables[site][u] = tbl
			}
		}
	case hasTables > 1:
		return nil, extraError(corrupt, "memo-table flag %d", hasTables)
	default:
		return nil, extraError(mismatch, "memo-table flag %d does not match program mode", hasTables)
	}
	if err := r.End(); err != nil {
		return nil, err
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
	m.sealExtra(gl)
	return &Result{
		Stats:            &pregel.Stats{Supersteps: 0},
		Iterations:       m.iterations,
		NonMonotoneSends: m.nonMonotone.Load(),
		machine:          m,
		end:              snap,
		endGlobals:       gl,
	}, nil
}
