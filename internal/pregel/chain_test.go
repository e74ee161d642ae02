package pregel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

func randChainEntries(rng *rand.Rand, n int) []ChainEntry {
	out := make([]ChainEntry, n)
	for i := range out {
		out[i] = ChainEntry{
			Kind:            ChainEntryKind(rng.Intn(3)),
			Superstep:       rng.Intn(1 << 20),
			Fingerprint:     rng.Uint64(),
			BaseSuperstep:   rng.Intn(1 << 20),
			BaseFingerprint: rng.Uint64(),
			Name:            fmt.Sprintf("chain-%06d.%x", i, rng.Uint32()),
		}
	}
	return out
}

// TestChainManifestRoundTrip is the manifest codec property test:
// encode → decode must reproduce the entries bit-exactly, including when
// embedded in a longer stream.
func TestChainManifestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		entries := randChainEntries(rng, rng.Intn(20))
		prefix := randBytes(rng, rng.Intn(8))
		enc := EncodeChainManifest(append([]byte(nil), prefix...), entries)
		tail := randBytes(rng, rng.Intn(8))
		enc = append(enc, tail...)

		got, rest, err := DecodeChainManifest(enc[len(prefix):])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(rest, tail) {
			t.Fatalf("trial %d: remainder mismatch", trial)
		}
		if len(entries) == 0 {
			entries = nil
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(entries, got) {
			t.Fatalf("trial %d: round trip mismatch:\n got %+v\nwant %+v", trial, got, entries)
		}
	}
}

// TestChainManifestDecodeRejects walks every truncation and bitflip of a
// valid manifest, plus structurally hostile names.
func TestChainManifestDecodeRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	valid := EncodeChainManifest(nil, randChainEntries(rng, 5))

	if _, _, err := DecodeChainManifest(nil); err == nil {
		t.Fatal("empty input decoded")
	}
	for i := 0; i < len(valid); i++ {
		if _, _, err := DecodeChainManifest(valid[:i]); err == nil {
			t.Fatalf("truncation at %d decoded", i)
		}
	}
	for i := 0; i < len(valid); i++ {
		bad := append([]byte(nil), valid...)
		bad[i] ^= 0x40
		if _, rest, err := DecodeChainManifest(bad); err == nil && len(rest) == 0 {
			t.Fatalf("bitflip at %d decoded cleanly", i)
		}
	}
	for _, name := range []string{"", ".", "..", "a/b", `a\b`, "a\x00b"} {
		enc := EncodeChainManifest(nil, []ChainEntry{{Kind: ChainBase, Name: name}})
		if _, _, err := DecodeChainManifest(enc); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("name %q: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// chainTestSnapshots simulates a serving run's checkpoint sequence: a
// converged base, then one slightly-changed snapshot per flush.
func chainTestSnapshots(rng *rand.Rand, n, count int) []*Snapshot {
	out := make([]*Snapshot, count)
	out[0] = randSnapshot(rng, n)
	out[0].Done = true
	for i := 1; i < count; i++ {
		out[i] = perturbSnapshot(rng, out[i-1])
	}
	return out
}

// TestChainWriterReplay drives the writer through snapshots and graph
// logs, then replays with LoadChain: the tip must equal the last appended
// snapshot bit-exactly and the graph logs must come back verbatim, in
// order — including after closing and reopening the writer mid-chain.
func TestChainWriterReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	snaps := chainTestSnapshots(rng, 25, 9)
	dir := t.TempDir()

	w, err := NewChainWriter(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wantLogs [][]byte
	appendOne := func(w *ChainWriter, i int) {
		t.Helper()
		var err error
		if i == 0 {
			_, _, err = w.AppendSnapshot(snaps[i])
		} else {
			log := []byte(fmt.Sprintf("# delta: flush %d\nadd %d %d 1.5\n", i, i, i+1))
			_, _, err = w.AppendBatch(log, snaps[i])
			wantLogs = append(wantLogs, log)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		appendOne(w, i)
	}
	// Reopen mid-chain: the new writer must replay to the same tip and
	// keep diffing against it.
	w2, err := NewChainWriter(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < len(snaps); i++ {
		appendOne(w2, i)
	}

	st, err := LoadChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := snaps[len(snaps)-1]; !sameSnapshot(want, st.Snapshot) {
		t.Fatalf("replayed tip mismatch:\n got %+v\nwant %+v", st.Snapshot, want)
	}
	if len(st.GraphDeltas) != len(wantLogs) {
		t.Fatalf("replayed %d graph logs, want %d", len(st.GraphDeltas), len(wantLogs))
	}
	for i := range wantLogs {
		if !bytes.Equal(st.GraphDeltas[i], wantLogs[i]) {
			t.Fatalf("graph log %d mismatch", i)
		}
	}
	// With rebaseEvery=3 the snapshot records must alternate base/delta in
	// the committed pattern: base, 3 deltas, base, 3 deltas, base.
	var kinds []ChainEntryKind
	for _, e := range st.Entries {
		if e.Kind != ChainGraphDelta {
			kinds = append(kinds, e.Kind)
		}
	}
	wantKinds := []ChainEntryKind{ChainBase, ChainDelta, ChainDelta, ChainDelta, ChainBase, ChainDelta, ChainDelta, ChainDelta, ChainBase}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Fatalf("snapshot record kinds %v, want %v", kinds, wantKinds)
	}
}

// TestChainWriterTipFollowsEveryAppend appends snapshots, in a random
// order that keeps undoing earlier changes, through one reused buffer that
// is scribbled over after each append, as the engine's capture buffer is:
// the writer's own copy of the tip, patched in place by each delta record,
// must load back as the snapshot just appended.
func TestChainWriterTipFollowsEveryAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	snaps := chainTestSnapshots(rng, 40, 8)
	dir := t.TempDir()
	w, err := NewChainWriter(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf Snapshot
	for i := 0; i < 40; i++ {
		s := snaps[rng.Intn(len(snaps))]
		buf.copyFrom(s)
		if _, _, err := w.AppendBatch([]byte("# delta\n"), &buf); err != nil {
			t.Fatal(err)
		}
		for _, sec := range buf.sections() {
			for j := range *sec {
				(*sec)[j] ^= 0xa5
			}
		}
		st, err := LoadChain(dir)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if !sameSnapshot(s, st.Snapshot) {
			t.Fatalf("append %d: the chain loads another tip than the snapshot appended", i)
		}
	}
}

// TestLoadChainStartsAtNewestBase builds a chain of several bases
// (rebaseEvery 2) and loads its tip and every record path to the snapshot
// appended there, with every graph log before it. It then deletes, base by
// base, the snapshot records each newer base supersedes: every record from
// that base on, and the tip, must still load the same, since LoadChain
// reads snapshot records only from the newest base at or before its target.
func TestLoadChainStartsAtNewestBase(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	snaps := chainTestSnapshots(rng, 30, 8)
	dir := t.TempDir()
	w, err := NewChainWriter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(snaps))
	var logs [][]byte
	for i, s := range snaps {
		if i == 0 {
			paths[i], _, err = w.AppendSnapshot(s)
		} else {
			logs = append(logs, []byte(fmt.Sprintf("# delta: flush %d\nadd %d %d 1.5\n", i, i, i+1)))
			paths[i], _, err = w.AppendBatch(logs[i-1], s)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	load := func(label, path string, want int) {
		t.Helper()
		st, err := LoadChain(path)
		if err != nil {
			t.Fatalf("%s: loading %s: %v", label, filepath.Base(path), err)
		}
		if !sameSnapshot(snaps[want], st.Snapshot) {
			t.Fatalf("%s: %s does not load snapshot %d", label, filepath.Base(path), want)
		}
		if !slices.EqualFunc(st.GraphDeltas, logs[:want], bytes.Equal) {
			t.Fatalf("%s: %s loads %d graph logs, want the %d before it", label, filepath.Base(path), len(st.GraphDeltas), want)
		}
	}
	var bases []int // the snapshots written as bases
	for i, p := range paths {
		if strings.HasSuffix(p, ".base") {
			bases = append(bases, i)
		}
	}
	if len(bases) < 3 {
		t.Fatalf("bases at snapshots %v: want a chain of at least three", bases)
	}
	for round, b := range bases {
		label := "whole chain"
		if round > 0 {
			label = fmt.Sprintf("records before snapshot %d deleted", b)
			for _, p := range paths[bases[round-1]:b] {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := b; i < len(paths); i++ {
			load(label, paths[i], i)
		}
		load(label, dir, len(snaps)-1)
	}
}

// TestChainCrashAtEveryCommitStage snapshots the chain directory at every
// commit stage of every append — after the record write but before the
// manifest rename, and after the rename — and asserts each copy loads to
// the last *committed* prefix: the kill-anywhere property of the commit
// protocol.
func TestChainCrashAtEveryCommitStage(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	snaps := chainTestSnapshots(rng, 20, 6)
	dir := t.TempDir()
	copies := t.TempDir()

	type killPoint struct {
		dir       string
		committed int // manifest entries committed when the copy was taken
	}
	var kills []killPoint
	committed := 0
	copyDir := func(label string) string {
		dst := filepath.Join(copies, fmt.Sprintf("kill-%03d-%s", len(kills), label))
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			b, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	var w *ChainWriter
	prev := chainCommitHook
	chainCommitHook = func(stage string) {
		switch stage {
		case "record":
			// The record file exists but the manifest still names the old
			// prefix: a kill here must load to `committed` entries.
			kills = append(kills, killPoint{copyDir("record"), committed})
		case "manifest":
			committed = len(w.entries)
			kills = append(kills, killPoint{copyDir("manifest"), committed})
		}
	}
	defer func() { chainCommitHook = prev }()

	var err error
	if w, err = NewChainWriter(dir, 2); err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		if i == 0 {
			_, _, err = w.AppendSnapshot(s)
		} else {
			_, _, err = w.AppendBatch([]byte(fmt.Sprintf("# delta: %d\n", i)), s)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(kills) < 2*len(snaps) {
		t.Fatalf("only %d kill points recorded", len(kills))
	}
	for _, k := range kills {
		st, err := LoadChain(k.dir)
		if k.committed == 0 {
			// Nothing committed yet: no manifest at all.
			if err == nil {
				t.Fatalf("%s: loaded a chain before any commit", k.dir)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", k.dir, err)
		}
		if len(st.Entries) != k.committed {
			t.Fatalf("%s: loaded %d entries, want the committed prefix %d", k.dir, len(st.Entries), k.committed)
		}
		// The tip must be the last committed snapshot, bit-exactly.
		lastSnap := -1
		for i := len(st.Entries) - 1; i >= 0; i-- {
			if st.Entries[i].Kind != ChainGraphDelta {
				lastSnap = i
				break
			}
		}
		if lastSnap < 0 {
			t.Fatalf("%s: committed prefix has no snapshot records", k.dir)
		}
		want := -1
		for i := 0; i <= lastSnap; i++ {
			if st.Entries[i].Kind != ChainGraphDelta {
				want++
			}
		}
		if !sameSnapshot(snaps[want], st.Snapshot) {
			t.Fatalf("%s: tip is not snapshot %d", k.dir, want)
		}
	}
}

// TestLoadChainRejects covers replay's integrity checks: missing record
// files, manifest/record identity disagreement, deltas with no base, and
// chains with no snapshots at all.
func TestLoadChainRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	build := func(t *testing.T) (string, []*Snapshot) {
		dir := t.TempDir()
		snaps := chainTestSnapshots(rng, 15, 3)
		w, err := NewChainWriter(dir, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snaps {
			if _, _, err := w.AppendSnapshot(s); err != nil {
				t.Fatal(err)
			}
		}
		return dir, snaps
	}

	t.Run("missing-record", func(t *testing.T) {
		dir, _ := build(t)
		if err := os.Remove(filepath.Join(dir, "chain-000001.delta")); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadChain(dir); err == nil {
			t.Fatal("loaded a chain with a missing record")
		}
	})
	t.Run("identity-mismatch", func(t *testing.T) {
		dir, _ := build(t)
		mb, err := os.ReadFile(filepath.Join(dir, ChainManifestName))
		if err != nil {
			t.Fatal(err)
		}
		entries, _, err := DecodeChainManifest(mb)
		if err != nil {
			t.Fatal(err)
		}
		entries[0].Fingerprint ^= 1
		if err := os.WriteFile(filepath.Join(dir, ChainManifestName), EncodeChainManifest(nil, entries), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadChain(dir); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("got %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("delta-without-base", func(t *testing.T) {
		dir, _ := build(t)
		mb, err := os.ReadFile(filepath.Join(dir, ChainManifestName))
		if err != nil {
			t.Fatal(err)
		}
		entries, _, err := DecodeChainManifest(mb)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ChainManifestName), EncodeChainManifest(nil, entries[1:]), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadChain(dir); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("no-snapshots", func(t *testing.T) {
		// A manifest naming one graph log and no snapshot record.
		dir := t.TempDir()
		const log = "chain-000000.gdelta"
		if err := os.WriteFile(filepath.Join(dir, log), []byte("# delta: 0\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		m := EncodeChainManifest(nil, []ChainEntry{{Kind: ChainGraphDelta, Fingerprint: 1, Name: log}})
		if err := os.WriteFile(filepath.Join(dir, ChainManifestName), m, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadChain(dir); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("corrupt-manifest", func(t *testing.T) {
		dir, _ := build(t)
		mb, err := os.ReadFile(filepath.Join(dir, ChainManifestName))
		if err != nil {
			t.Fatal(err)
		}
		mb[len(mb)-1] ^= 0x40
		if err := os.WriteFile(filepath.Join(dir, ChainManifestName), mb, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadChain(dir); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
		// A corrupt chain must refuse to be appended to, not be overwritten.
		if _, err := NewChainWriter(dir, 0); err == nil {
			t.Fatal("NewChainWriter opened a corrupt chain")
		}
	})
}

// TestReplayErrorsNameTheLog replays hand-built chains over a path and
// checks which log each failure names. Replay applies every log in one
// graph.ApplyDeltas call, yet it must report what a replay of one log at a
// time would meet first: a fingerprint that differs from the chain's after
// log j comes before a log k > j that cannot be decoded or applied.
func TestReplayErrorsNameTheLog(t *testing.T) {
	// path(m) is the directed path through the first m of 4 vertices.
	path := func(m int) *graph.Graph {
		b := graph.NewBuilder(4, true)
		for u := 0; u+1 < m; u++ {
			b.AddEdge(VertexID(u), VertexID(u+1))
		}
		return b.Finalize()
	}
	logs := []string{"add 0 2\n", "add 1 3 2.5\n", "del 0 1\n"}
	var fps []uint64 // after each log, one ApplyDelta per log over path(4)
	g := path(4)
	for _, s := range logs {
		d, err := graph.ReadDeltaLog(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		if g, _, err = graph.ApplyDelta(g, d); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, g.Fingerprint())
	}
	wrongAfter := func(j int) []uint64 {
		out := slices.Clone(fps)
		out[j] ^= 1
		return out
	}
	const undecodable, unappliable = "frob 1 2\n", "del 3 0\n"
	for _, c := range []struct {
		name     string
		boot     *graph.Graph
		logs     []string
		fps      []uint64
		want     string // "" when the replay must succeed
		mismatch bool   // the error wraps ErrSnapshotMismatch
	}{
		{"chain replays", path(4), logs, fps, "", false},
		{"wrong boot graph", path(3), logs, fps, "after mutation log 0", true},
		{"undecodable log", path(4), []string{logs[0], logs[1], undecodable}, fps, "decoding mutation log 2", false},
		{"log removes a missing edge", path(4), []string{logs[0], logs[1], unappliable}, fps, "replaying mutation log 2", false},
		{"mismatch before an undecodable log", path(4), []string{logs[0], logs[1], undecodable}, wrongAfter(1), "after mutation log 1", true},
		{"mismatch before an unappliable log", path(4), []string{logs[0], logs[1], unappliable}, wrongAfter(1), "after mutation log 1", true},
	} {
		st := &ChainState{Dir: "hand-built", GraphFingerprints: c.fps, Snapshot: &Snapshot{snapHeader: snapHeader{Fingerprint: fps[len(fps)-1]}}}
		for _, s := range c.logs {
			st.GraphDeltas = append(st.GraphDeltas, []byte(s))
		}
		got, err := st.Replay(c.boot)
		if c.want == "" {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got.Fingerprint() != fps[len(fps)-1] {
				t.Fatalf("%s: replayed fingerprint %016x, want %016x", c.name, got.Fingerprint(), fps[len(fps)-1])
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || errors.Is(err, ErrSnapshotMismatch) != c.mismatch {
			t.Errorf("%s: err = %v, want one naming %q, ErrSnapshotMismatch %v", c.name, err, c.want, c.mismatch)
		}
	}
}

// TestReplayRefusesAForgedBootDigest: a boot graph loaded from a DVGRAF
// file whose stored arc-hash sum was forged (checksum recomputed, so the
// file decodes) is never served. With logs, the digest derived from the
// forged sum fails step 0's comparison; with none — a chain whose tip was
// taken on that same forged digest, so every recorded fingerprint agrees
// with it — the re-hash of the result refuses it.
func TestReplayRefusesAForgedBootDigest(t *testing.T) {
	b := graph.NewBuilder(5, true)
	for u := 0; u+1 < 5; u++ {
		b.AddEdge(VertexID(u), VertexID(u+1))
	}
	enc := graph.EncodeGraph(b.Finalize())
	const sumAt = 40 // DVGRAF v2 header: magic, version, flags, n, arcs, cOutLen, then the sum
	forged := bytes.Clone(enc)
	forged[sumAt] ^= 1
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.ChecksumIEEE(forged[:len(forged)-4]))
	load := func(img []byte) *graph.Graph {
		g, err := graph.DecodeGraph(img, graph.LoadCompact)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	d, err := graph.ReadDeltaLog(strings.NewReader("add 0 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := graph.ApplyDelta(load(enc), d)
	if err != nil {
		t.Fatal(err)
	}
	withLog := &ChainState{Dir: "hand-built", GraphDeltas: [][]byte{[]byte("add 0 3\n")},
		GraphFingerprints: []uint64{next.Fingerprint()}, Snapshot: &Snapshot{snapHeader: snapHeader{Fingerprint: next.Fingerprint()}}}
	if _, err := withLog.Replay(load(enc)); err != nil {
		t.Fatalf("honest boot: %v", err)
	}
	if _, err := withLog.Replay(load(forged)); !errors.Is(err, ErrSnapshotMismatch) || !strings.Contains(err.Error(), "after mutation log 0") {
		t.Errorf("one log over a forged boot digest: err = %v, want ErrSnapshotMismatch at mutation log 0", err)
	}

	boot := load(forged)
	noLogs := &ChainState{Dir: "hand-built", Snapshot: &Snapshot{snapHeader: snapHeader{Fingerprint: boot.Fingerprint()}}}
	if _, err := noLogs.Replay(boot); !errors.Is(err, graph.ErrFingerprintMismatch) {
		t.Errorf("no logs over a forged boot digest: err = %v, want graph.ErrFingerprintMismatch", err)
	}
}

// fuzzSeedChainManifest builds the valid manifest the fuzz seeds mutate.
func fuzzSeedChainManifest() []byte {
	rng := rand.New(rand.NewSource(47))
	return EncodeChainManifest(nil, randChainEntries(rng, 4))
}

// FuzzChainDecode asserts the manifest decoder's contract on arbitrary
// input: it may reject, but it must never panic, and anything it accepts
// must re-encode to an identical manifest.
func FuzzChainDecode(f *testing.F) {
	valid := fuzzSeedChainManifest()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add([]byte("DVCHMF"))
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[6] ^= 0xff
	f.Add(wrongVersion)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	f.Add(badCRC)

	f.Fuzz(func(t *testing.T, b []byte) {
		entries, rest, err := DecodeChainManifest(b)
		if err != nil {
			if entries != nil {
				t.Fatal("decode returned both entries and an error")
			}
			return
		}
		if len(rest) > len(b) {
			t.Fatal("remainder longer than input")
		}
		re := EncodeChainManifest(nil, entries)
		entries2, rest2, err := DecodeChainManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest failed to decode: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-encoded manifest left %d remainder bytes", len(rest2))
		}
		if len(entries) == 0 {
			entries = nil
		}
		if len(entries2) == 0 {
			entries2 = nil
		}
		if !reflect.DeepEqual(entries, entries2) {
			t.Fatalf("re-encode changed the manifest:\n got %+v\nwant %+v", entries2, entries)
		}
	})
}
