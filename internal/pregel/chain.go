package pregel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/framing"
	"repro/internal/graph"
)

// This file implements the checkpoint chain: a directory holding one full
// base snapshot, the incremental DVSNPD records layered on top of it, the
// graph mutation logs that explain fingerprint changes between records, and
// a CRC'd manifest naming them in replay order. A crashed or restarted node
// loads the chain, replays delta records over the base, and seeds the next
// repair without rereading full vertex state. See DESIGN.md §16.
//
// Commit protocol: every append writes its record file first, then rewrites
// the manifest to a temp file and renames it into place. The rename is the
// commit point — a crash between the two leaves an unreferenced record file
// behind, which replay ignores, so the chain always loads to the last
// committed entry.

// ChainManifestVersion is the current manifest format version (see
// SnapshotVersion for what 2 means).
const ChainManifestVersion = 2

// ChainManifestName is the manifest's file name inside a chain directory.
const ChainManifestName = "chain.dvchmf"

var chainManifestFormat = framing.Format{
	Magic: [6]byte{'D', 'V', 'C', 'H', 'M', 'F'}, Version: ChainManifestVersion, Name: "DVCHMF",
	Corrupt: ErrSnapshotCorrupt, Unsupported: ErrSnapshotVersion,
}

// ChainEntryKind distinguishes the three record types a chain carries.
type ChainEntryKind uint8

const (
	// ChainBase is a full DVSNAP snapshot record.
	ChainBase ChainEntryKind = iota
	// ChainDelta is a DVSNPD incremental record patching the snapshot
	// reconstructed so far.
	ChainDelta
	// ChainGraphDelta is a graph mutation log (internal/graph delta-log
	// text format) explaining the fingerprint step to the next record.
	ChainGraphDelta
)

func (k ChainEntryKind) String() string {
	switch k {
	case ChainBase:
		return "base"
	case ChainDelta:
		return "delta"
	case ChainGraphDelta:
		return "graphdelta"
	}
	return fmt.Sprintf("ChainEntryKind(%d)", uint8(k))
}

// ChainEntry is one manifest row: a record file plus the identity replay
// must find in it.
type ChainEntry struct {
	Kind        ChainEntryKind
	Superstep   int    // snapshot superstep (0 for graph deltas)
	Fingerprint uint64 // graph fingerprint after this record applies
	// Base identity for ChainDelta entries (zero otherwise): the snapshot
	// state the record patches.
	BaseSuperstep   int
	BaseFingerprint uint64
	Name            string // record file name inside the chain directory
}

// EncodeChainManifest appends the binary manifest encoding to dst, framed
// as DESIGN.md §10 describes:
//
//	magic "DVCHMF" | version u16 | count u32
//	| entry ×count: kind u8 | superstep i64 | fingerprint u64
//	                | baseSuperstep i64 | baseFingerprint u64
//	                | nameLen u16 | name bytes
//	| crc32(IEEE) of everything above, u32
func EncodeChainManifest(dst []byte, entries []ChainEntry) []byte {
	start := len(dst)
	dst = chainManifestFormat.Begin(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = append(dst, byte(e.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(e.Superstep)))
		dst = binary.LittleEndian.AppendUint64(dst, e.Fingerprint)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(e.BaseSuperstep)))
		dst = binary.LittleEndian.AppendUint64(dst, e.BaseFingerprint)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Name)))
		dst = append(dst, e.Name...)
	}
	return framing.Seal(dst, start)
}

// DecodeChainManifest decodes one manifest from the front of b, returning
// the entries and any remaining bytes. Corrupt, truncated, or
// wrong-version input returns an error wrapping ErrSnapshotCorrupt or
// ErrSnapshotVersion; it never panics. Entry names are constrained to
// plain file names (no path separators, no "..") so a hostile manifest
// cannot direct replay outside its own directory.
func DecodeChainManifest(b []byte) ([]ChainEntry, []byte, error) {
	r := chainManifestFormat.Open(b)
	// Each entry costs at least 35 bytes (fixed fields + empty name).
	entries := make([]ChainEntry, r.Count(35, "manifest entry"))
	for i := range entries {
		e := &entries[i]
		if kind := r.U8(); kind > uint8(ChainGraphDelta) {
			r.Fail("unknown chain entry kind %d", kind)
		} else {
			e.Kind = ChainEntryKind(kind)
		}
		e.Superstep = int(r.I64())
		e.Fingerprint = r.U64()
		e.BaseSuperstep = int(r.I64())
		e.BaseFingerprint = r.U64()
		e.Name = string(r.Take(int(r.U16())))
		if r.Err() == nil && (e.Name == "" || e.Name == "." || e.Name == ".." ||
			strings.ContainsAny(e.Name, "/\\\x00")) {
			r.Fail("entry %d has unsafe record name %q", i, e.Name)
		}
	}
	rest, err := r.Close()
	if err != nil {
		return nil, nil, err
	}
	return entries, rest, nil
}

// DefaultRebaseEvery caps how many consecutive incremental records a chain
// writer layers on one base before writing a fresh full snapshot, bounding
// both replay time and the blast radius of a lost record.
const DefaultRebaseEvery = 16

// ChainWriter appends snapshots and graph mutation logs to a chain
// directory. Not safe for concurrent use; the engine and the serving
// daemon both call it from their single checkpoint/flush path.
type ChainWriter struct {
	dir         string
	rebaseEvery int
	entries     []ChainEntry
	sinceBase   int // delta records since the last base
	// tip is the chain's last snapshot, the next delta record's diff base
	// (nil until the chain holds one): the snapshot a reopened chain
	// loaded, which the writer only reads — a server booted from the chain
	// then holds no second copy of the state it serves until it flushes —
	// or own, the writer's copy of the last one appended (callers, the
	// engine's reusable capture buffer in particular, overwrite their
	// snapshot's slices between appends).
	tip *Snapshot
	own Snapshot
}

// NewChainWriter opens (or creates) the chain in dir; see OpenChain.
func NewChainWriter(dir string, rebaseEvery int) (*ChainWriter, error) {
	w, _, err := OpenChain(dir, rebaseEvery)
	return w, err
}

// OpenChain opens (or creates) the chain in dir for appending. An existing
// manifest is loaded and fully replayed so subsequent appends diff against
// the chain's real tip, and the replayed state is returned alongside the
// writer (nil for a new chain) so a caller that also boots from the chain
// does not load it a second time; a corrupt chain returns an error rather
// than being silently overwritten. rebaseEvery <= 0 selects
// DefaultRebaseEvery.
func OpenChain(dir string, rebaseEvery int) (*ChainWriter, *ChainState, error) {
	if rebaseEvery <= 0 {
		rebaseEvery = DefaultRebaseEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	w := &ChainWriter{dir: dir, rebaseEvery: rebaseEvery}
	if !IsChainDir(dir) {
		return w, nil, nil
	}
	st, err := LoadChain(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("pregel: resuming chain %s: %w", dir, err)
	}
	w.entries, w.tip = st.Entries, st.Snapshot
	for _, e := range st.Entries {
		switch e.Kind {
		case ChainBase:
			w.sinceBase = 0
		case ChainDelta:
			w.sinceBase++
		}
	}
	return w, st, nil
}

// snapshotEntry encodes s as the chain's next snapshot record — a full base
// if the chain is empty or rebaseEvery deltas have accumulated, an
// incremental DVSNPD record against the tip otherwise — named with
// sequence number seq, and returns the delta record (nil for a base). It
// does not touch writer state; the caller commits.
func (w *ChainWriter) snapshotEntry(s *Snapshot, seq int) (ChainEntry, []byte, *SnapshotDelta) {
	e := ChainEntry{Kind: ChainBase, Superstep: s.Superstep, Fingerprint: s.Fingerprint}
	if w.tip == nil || w.sinceBase >= w.rebaseEvery {
		e.Name = fmt.Sprintf("chain-%06d.base", seq)
		return e, s.AppendTo(nil), nil
	}
	d := DiffSnapshots(w.tip, s)
	e.Kind, e.BaseSuperstep, e.BaseFingerprint = ChainDelta, d.BaseSuperstep, d.BaseFingerprint
	e.Name = fmt.Sprintf("chain-%06d.delta", seq)
	return e, d.AppendTo(nil), d
}

// noteSnapshot records a committed snapshot entry, for s, as the writer's
// new tip. When the entry is d, a delta record against own, own is patched
// with d's runs rather than copied whole, so the append costs what changed.
func (w *ChainWriter) noteSnapshot(e ChainEntry, s *Snapshot, d *SnapshotDelta) {
	if e.Kind == ChainBase {
		w.sinceBase = 0
	} else {
		w.sinceBase++
	}
	if d == nil || w.tip != &w.own {
		w.own.copyFrom(s)
		w.tip = &w.own
		return
	}
	w.own.snapHeader, w.own.Aggs = s.snapHeader, append(w.own.Aggs[:0], s.Aggs...)
	sec := w.own.sections()
	for i, p := range d.patches {
		switch p.tag {
		case patchFull:
			*sec[i] = append((*sec[i])[:0], p.full...)
		case patchRuns:
			for _, r := range p.runs {
				copy((*sec[i])[r.off:], r.data)
			}
		}
	}
}

// AppendSnapshot commits s to the chain: a full base record if the chain
// is empty or rebaseEvery deltas have accumulated, an incremental DVSNPD
// record otherwise. It returns the record's path and encoded size.
func (w *ChainWriter) AppendSnapshot(s *Snapshot) (path string, size int, err error) {
	e, b, d := w.snapshotEntry(s, len(w.entries))
	path = filepath.Join(w.dir, e.Name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", 0, err
	}
	chainCommitHook("record")
	if err := w.commit(e); err != nil {
		return "", 0, err
	}
	w.noteSnapshot(e, s, d)
	return path, len(b), nil
}

// AppendBatch atomically appends one served batch: a graph mutation log
// (delta-log text, as written by graph.WriteDeltaLog) followed by the
// snapshot of the repaired run that incorporates it. Both record files are
// written before a single manifest commit publishes the pair, so a crash
// can never leave the chain describing a graph its tip snapshot does not
// match — replay sees either the whole batch or none of it. It returns the
// snapshot record's path and encoded size.
func (w *ChainWriter) AppendBatch(payload []byte, s *Snapshot) (snapPath string, snapSize int, err error) {
	ge := ChainEntry{
		Kind:        ChainGraphDelta,
		Fingerprint: s.Fingerprint,
		Name:        fmt.Sprintf("chain-%06d.gdelta", len(w.entries)),
	}
	if err := os.WriteFile(filepath.Join(w.dir, ge.Name), payload, 0o644); err != nil {
		return "", 0, err
	}
	se, b, d := w.snapshotEntry(s, len(w.entries)+1)
	snapPath = filepath.Join(w.dir, se.Name)
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		return "", 0, err
	}
	chainCommitHook("record")
	if err := w.commit(ge, se); err != nil {
		return "", 0, err
	}
	w.noteSnapshot(se, s, d)
	return snapPath, len(b), nil
}

// commit appends es to the manifest and atomically renames it into place —
// the chain's single commit point.
func (w *ChainWriter) commit(es ...ChainEntry) error {
	entries := append(w.entries, es...)
	if err := writeFileAtomic(filepath.Join(w.dir, ChainManifestName), EncodeChainManifest(nil, entries)); err != nil {
		return err
	}
	w.entries = entries
	chainCommitHook("manifest")
	return nil
}

// writeFileAtomic writes b to path through a temp file and a rename, so a
// crash mid-write (a sharded peer can be SIGKILLed at any point) leaves the
// old file or the new one, never a torn one. The temp file is removed when
// the rename fails.
func writeFileAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// chainCommitHook is a test seam: the crash suites swap it to copy the
// chain directory between the record write and the manifest rename,
// simulating a kill at every commit stage. The default does nothing.
var chainCommitHook = func(stage string) {}

// ChainState is a fully replayed chain: the reconstructed tip snapshot and
// the graph mutation logs, in commit order, that explain how the graph
// reached the tip's fingerprint.
type ChainState struct {
	Dir      string
	Entries  []ChainEntry
	Snapshot *Snapshot // reconstructed tip (nil only if the chain has no snapshot records)
	// GraphDeltas holds each ChainGraphDelta record's payload in commit
	// order, parallel to GraphFingerprints (the fingerprint after applying
	// each log).
	GraphDeltas       [][]byte
	GraphFingerprints []uint64
}

// LoadChain loads the checkpoint chain path names and replays its records:
// the newest base snapshot at or before the target loads whole, each delta
// record after it patches the snapshot loaded so far in place, and every
// graph log, from the first entry on, is collected for the caller to
// re-apply. Given the chain's directory the target is the tip. Given the
// path of one of the chain's snapshot records — what Stats.CheckpointPath
// and ChainWriter's appends return — the target is that record; a file the
// manifest does not commit, or a mutation log, is refused. Every record read
// is CRC- and identity-checked against its manifest row, and its sections
// against its vertex count; any mismatch fails the load, naming the record.
//
// The snapshot records before the target's base are never opened, so a
// base and the deltas on it may be deleted once a newer base is committed:
// the chain still loads to every record from that base on. The graph logs
// are what a chain may never lose.
func LoadChain(path string) (*ChainState, error) {
	dir, name := path, ""
	mb, err := os.ReadFile(filepath.Join(dir, ChainManifestName))
	if err != nil {
		// Not a chain directory: path may be a record of the chain beside it.
		if fi, serr := os.Stat(path); serr != nil || fi.IsDir() {
			return nil, err
		}
		dir, name = filepath.Dir(path), filepath.Base(path)
		if mb, err = os.ReadFile(filepath.Join(dir, ChainManifestName)); err != nil {
			return nil, fmt.Errorf("%s is not in a checkpoint chain: %w", path, err)
		}
	}
	entries, rest, err := DecodeChainManifest(mb)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, ChainManifestName), err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: chain manifest has %d trailing bytes", ErrSnapshotCorrupt, len(rest))
	}
	if name != "" {
		i := slices.IndexFunc(entries, func(e ChainEntry) bool { return e.Name == name })
		switch {
		case i < 0:
			return nil, fmt.Errorf("%s is not a committed record of its chain's manifest", path)
		case entries[i].Kind == ChainGraphDelta:
			return nil, fmt.Errorf("%s is a mutation log, not a snapshot record", path)
		}
		entries = entries[:i+1]
	}
	from := 0 // the newest base: the snapshot records before it are superseded
	for i, e := range entries {
		if e.Kind == ChainBase {
			from = i
		}
	}
	st := &ChainState{Dir: dir, Entries: entries}
	for i, e := range entries {
		if i < from && e.Kind != ChainGraphDelta {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name))
		if err != nil {
			return nil, fmt.Errorf("chain entry %d (%s): %w", i, e.Kind, err)
		}
		switch e.Kind {
		case ChainBase:
			// The base's sections alias b, read for this load alone.
			var s *Snapshot
			if s, rest, err = decodeSnapshot(b); err == nil {
				err = checkRecord(e, &s.snapHeader, rest)
			}
			st.Snapshot = s
		case ChainDelta:
			var d *SnapshotDelta
			if st.Snapshot == nil {
				err = fmt.Errorf("%w: a delta record with no base before it", ErrSnapshotCorrupt)
			} else if d, rest, err = DecodeSnapshotDelta(b); err == nil {
				if err = checkRecord(e, &d.snapHeader, rest); err == nil {
					err = st.Snapshot.apply(d)
				}
			}
		case ChainGraphDelta:
			st.GraphDeltas = append(st.GraphDeltas, b)
			st.GraphFingerprints = append(st.GraphFingerprints, e.Fingerprint)
		}
		if err != nil {
			return nil, fmt.Errorf("chain entry %d (%s %s): %w", i, e.Kind, e.Name, err)
		}
	}
	if st.Snapshot == nil {
		return nil, fmt.Errorf("%w: chain %s has no snapshot records", ErrSnapshotCorrupt, dir)
	}
	return st, nil
}

// checkRecord checks a decoded snapshot record, its header h and the bytes
// rest after it, against the manifest row e that names it.
func checkRecord(e ChainEntry, h *snapHeader, rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(rest))
	}
	if h.Fingerprint != e.Fingerprint || h.Superstep != e.Superstep {
		return fmt.Errorf("%w: record is superstep %d/%016x, manifest says %d/%016x",
			ErrSnapshotMismatch, h.Superstep, h.Fingerprint, e.Superstep, e.Fingerprint)
	}
	return nil
}

// Replay rebuilds the graph the chain's tip snapshot was taken on: the
// mutation logs applied in commit order on top of boot — the graph the
// chain was started from, which the chain itself does not store — by one
// graph.ApplyDeltas call, which interprets each log against boot overlaid
// with the blocks the logs before it rewrote and splices once. The
// fingerprint it derives after each log is checked against the one the
// chain recorded for that step, so the wrong boot graph fails naming the
// first log it diverges at instead of seeding state onto a graph it does
// not describe. Those checks come before any failure to decode or apply a
// later log: the order a replay of one log at a time would meet them in.
//
// A derived digest covers the touched blocks alone, and boot's digest may
// be the one its DVGRAF file stored rather than one hashed from its arrays;
// a graph replayed wrong here would be served until the next restart. So
// replay — unlike a live flush, whose source was just served — re-hashes
// the result from its arrays once (graph.VerifyFingerprint), with or
// without logs: a span miscopied from boot, or a boot graph whose arrays no
// longer match its digest, leaves the derived arc-hash sum off the
// re-hashed one (TestTipRehashCatchesEarlierCorruption in internal/graph),
// and a boot file with a forged sum fails step 0's comparison or this
// re-hash (TestReplayRefusesAForgedBootDigest).
//
// With no logs the result is boot itself; otherwise it is a new graph the
// caller owns (boot is never closed). Continue(st.Snapshot) on the
// returned graph is the chain-tip seed.
func (st *ChainState) Replay(boot *graph.Graph) (*graph.Graph, error) {
	logs := make([]*graph.Delta, 0, len(st.GraphDeltas))
	var undecodable error // the logs before it still replay, and are checked first
	for i, payload := range st.GraphDeltas {
		d, err := graph.ReadDeltaLog(bytes.NewReader(payload))
		if err != nil {
			undecodable = fmt.Errorf("decoding mutation log %d: %w", i, err)
			break
		}
		logs = append(logs, d)
	}
	g, fps, err := graph.ApplyDeltas(boot, logs)
	fail := func(err error) (*graph.Graph, error) {
		if g != nil && g != boot {
			g.Close()
		}
		return nil, fmt.Errorf("chain %s: %w", st.Dir, err)
	}
	for i, fp := range fps {
		if fp != st.GraphFingerprints[i] {
			return fail(fmt.Errorf("%w: graph fingerprint %016x after mutation log %d, chain recorded %016x — wrong boot-time graph?",
				ErrSnapshotMismatch, fp, i, st.GraphFingerprints[i]))
		}
	}
	switch {
	case err != nil && len(fps) < len(logs):
		return fail(fmt.Errorf("replaying mutation log %d: %w", len(fps), err))
	case err != nil:
		return fail(fmt.Errorf("replaying %d mutation logs: %w", len(logs), err))
	case undecodable != nil:
		return fail(undecodable)
	}
	if err := g.VerifyFingerprint(); err != nil {
		return fail(fmt.Errorf("replaying %d mutation logs: %w", len(logs), err))
	}
	if fp := g.Fingerprint(); fp != st.Snapshot.Fingerprint {
		return fail(fmt.Errorf("%w: replayed graph has fingerprint %016x but the tip snapshot was taken on %016x — wrong boot-time graph?",
			ErrSnapshotMismatch, fp, st.Snapshot.Fingerprint))
	}
	return g, nil
}

// IsChainDir reports whether dir holds a chain manifest.
func IsChainDir(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, ChainManifestName))
	return err == nil && fi.Mode().IsRegular()
}
