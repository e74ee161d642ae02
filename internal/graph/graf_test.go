package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/framing"
)

// grafEqual asserts that two graphs expose identical structure through
// the public accessors, bit-identical weights included, and that got's
// arcs hash to the digest it carries: a decoded graph's Fingerprint is the
// sum its file stored, so comparing digests alone would not look at the
// arrays.
func grafEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumArcs() != want.NumArcs() ||
		got.Directed() != want.Directed() || got.Weighted() != want.Weighted() {
		t.Fatalf("summary mismatch: %v vs %v", got, want)
	}
	for u := 0; u < want.NumVertices(); u++ {
		id := VertexID(u)
		checkSame(t, "out", want.OutNeighbors(id), got.OutNeighbors(id),
			want.OutWeights(id), got.OutWeights(id))
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %x vs %x", got.Fingerprint(), want.Fingerprint())
	}
	if err := got.VerifyFingerprint(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphCodecRoundTrip(t *testing.T) {
	for name, g := range compactCorpus(t) {
		t.Run(name, func(t *testing.T) {
			enc := EncodeGraph(g)
			if enc2 := EncodeGraph(MustCompact(g)); !bytes.Equal(enc, enc2) {
				t.Fatal("flat and compact graphs must encode identically")
			}
			for _, mode := range []LoadMode{LoadFlat, LoadCompact} {
				dec, err := DecodeGraph(enc, mode)
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if dec.IsCompact() != (mode == LoadCompact) {
					t.Fatalf("%v: got repr %s", mode, dec.Repr())
				}
				grafEqual(t, g, dec)
				if !bytes.Equal(EncodeGraph(dec), enc) {
					t.Fatalf("%v: re-encode differs", mode)
				}
			}
		})
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	g := WithRandomWeights(RMAT(10, 8, 0.57, 0.19, 0.19, true, 3), 1, 10, 4)
	path := filepath.Join(t.TempDir(), "g.dvg")
	if err := WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	if !IsGraphFile(path) {
		t.Fatal("IsGraphFile must recognize a DVGRAF file")
	}
	for _, mode := range []LoadMode{LoadFlat, LoadCompact, LoadMmap} {
		dec, err := ReadGraphFile(path, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		grafEqual(t, g, dec)
		if mode == LoadMmap && runtime.GOOS == "linux" && !dec.Mapped() {
			t.Fatal("LoadMmap on linux must produce a mapped graph")
		}
		if dec.Mapped() {
			if dec.Repr() != "compact+mmap" {
				t.Fatalf("mapped Repr = %q", dec.Repr())
			}
			if err := dec.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	}
}

func TestMappedGraphRuns(t *testing.T) {
	// A mapped graph must behave like any other compact graph end to
	// end: reverse materialization, delta application, re-encoding.
	g := RMAT(8, 6, 0.57, 0.19, 0.19, true, 12)
	path := filepath.Join(t.TempDir(), "g.dvg")
	if err := WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := ReadGraphFile(path, LoadMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.VerifyFingerprint(); err != nil {
		t.Fatal(err)
	}
	m.BuildReverse()
	g.BuildReverse()
	for u := 0; u < g.NumVertices(); u++ {
		checkSame(t, "in", g.InNeighbors(VertexID(u)), m.InNeighbors(VertexID(u)), nil, nil)
	}
	d := &Delta{}
	d.AddEdge(1, 2)
	want, _, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ApplyDelta(m, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("delta on a mapped graph diverged")
	}
	if err := got.VerifyFingerprint(); err != nil {
		t.Fatal(err)
	}
	if got.Mapped() {
		t.Fatal("ApplyDelta result must be heap-backed")
	}
}

func TestGraphDecodeRejectsEveryTruncation(t *testing.T) {
	g := WithRandomWeights(Grid(6, 7, 5, 2), 1, 9, 3)
	enc := EncodeGraph(g)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeGraph(enc[:cut], LoadCompact); err == nil {
			t.Fatalf("truncation to %d/%d bytes not rejected", cut, len(enc))
		} else if !errors.Is(err, ErrGraphCorrupt) && !errors.Is(err, ErrGraphVersion) {
			t.Fatalf("truncation to %d bytes: unexpected error class: %v", cut, err)
		}
	}
}

func TestGraphDecodeRejectsEveryBitflip(t *testing.T) {
	g := RMAT(6, 4, 0.57, 0.19, 0.19, true, 8)
	enc := EncodeGraph(g)
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		if _, err := DecodeGraph(mut, LoadFlat); err == nil {
			t.Fatalf("flipped byte %d/%d not rejected", i, len(enc))
		}
	}
}

func TestGraphDecodeRejectsWrongVersion(t *testing.T) {
	for _, v := range []byte{0, GraphFormatVersion + 1} {
		enc := EncodeGraph(Path(3, true))
		enc[6] = v // version field
		if _, err := DecodeGraph(enc, LoadFlat); !errors.Is(err, ErrGraphVersion) {
			t.Fatalf("version %d: want ErrGraphVersion, got %v", v, err)
		}
	}
}

func TestGraphDecodeRejectsForgedChecksum(t *testing.T) {
	// Corrupt a stream byte and fix the CRC back up: the structural
	// walk must still reject what the checksum would have admitted.
	g := Star(40, true)
	enc := EncodeGraph(g)
	// Neighbour stream of the hub encodes 1,1,1,... (gaps); rewrite one
	// gap to jump past n.
	idx := bytes.LastIndexByte(enc[:len(enc)-4], 1)
	if idx < grafHeaderLen {
		t.Fatal("could not locate a stream byte")
	}
	enc[idx] = 0x7f
	reseal(enc)
	if _, err := DecodeGraph(enc, LoadFlat); !errors.Is(err, ErrGraphCorrupt) {
		t.Fatalf("forged image not rejected: %v", err)
	}
}

// reseal recomputes the trailing CRC after a deliberate mutation.
func reseal(enc []byte) {
	sum := crc32.ChecksumIEEE(enc[:len(enc)-4])
	enc[len(enc)-4] = byte(sum)
	enc[len(enc)-3] = byte(sum >> 8)
	enc[len(enc)-2] = byte(sum >> 16)
	enc[len(enc)-1] = byte(sum >> 24)
}

func TestGraphDecodeMmapModeRejected(t *testing.T) {
	if _, err := DecodeGraph(EncodeGraph(Path(3, true)), LoadMmap); err == nil {
		t.Fatal("DecodeGraph must reject LoadMmap")
	}
}

func TestIsGraphFileRejectsOtherFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.el")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if IsGraphFile(path) {
		t.Fatal("edge list misdetected as DVGRAF")
	}
	if IsGraphFile(filepath.Join(t.TempDir(), "missing.dvg")) {
		t.Fatal("missing file misdetected as DVGRAF")
	}
}

func TestGraphDecodeConvertFallback(t *testing.T) {
	// Force the explicit little-endian conversion path (what big-endian
	// hosts always run) and check it agrees with the aliasing path.
	g := WithRandomWeights(RMAT(7, 5, 0.57, 0.19, 0.19, false, 9), 1, 4, 2)
	enc := EncodeGraph(g)
	s, err := parseGraf(enc)
	if err != nil {
		t.Fatal(err)
	}
	converted, err := s.build(LoadCompact, false) // never aliases
	if err != nil {
		t.Fatal(err)
	}
	grafEqual(t, g, converted)
	if converted.Weighted() {
		for u := 0; u < g.NumVertices(); u++ {
			for i, w := range converted.OutWeights(VertexID(u)) {
				if math.Float64bits(w) != math.Float64bits(g.OutWeights(VertexID(u))[i]) {
					t.Fatalf("weight bits diverged at %d/%d", u, i)
				}
			}
		}
	}
}

func FuzzGraphDecode(f *testing.F) {
	for _, g := range []*Graph{
		Path(4, true),
		Star(6, false),
		WithRandomWeights(Grid(3, 3, 5, 1), 1, 3, 1),
		MustCompact(RMAT(5, 3, 0.57, 0.19, 0.19, true, 2)),
		NewBuilder(0, true).Finalize(),
	} {
		f.Add(EncodeGraph(g))
	}
	f.Add(forgeDigest(EncodeGraph(Path(4, true))))
	f.Add([]byte("DVGRAF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []LoadMode{LoadFlat, LoadCompact} {
			g, err := DecodeGraph(data, mode)
			if err != nil {
				continue
			}
			// Anything the decoder admits must be iterable and must
			// survive a re-encode/decode round trip unchanged.
			total := 0
			for u := 0; u < g.NumVertices(); u++ {
				it := g.OutArcs(VertexID(u))
				for it.Next() {
					if int(it.To()) >= g.NumVertices() {
						t.Fatalf("decoded neighbour %d out of range", it.To())
					}
					total++
				}
			}
			if total != g.NumArcs() {
				t.Fatalf("iterated %d arcs, graph claims %d", total, g.NumArcs())
			}
			// Compare the arrays' hashes, not the digests the two images
			// stored: the input's may be anything its checksum covers.
			re, err := DecodeGraph(EncodeGraph(g), mode)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if re.NumVertices() != g.NumVertices() || re.Directed() != g.Directed() || re.arcHashSum() != g.arcHashSum() {
				t.Fatal("round trip changed the graph")
			}
			if err := re.VerifyFingerprint(); err != nil {
				t.Fatalf("re-encode stored a digest its arcs do not hash to: %v", err)
			}
		}
	})
}

// forgeDigest returns a copy of the version-2 image enc with its stored
// arc-hash sum changed and its checksum recomputed: an image every
// structural check admits, whose digest does not describe its arcs.
func forgeDigest(enc []byte) []byte {
	out := bytes.Clone(enc)
	out[grafHeaderLen-8] ^= 1
	reseal(out)
	return out
}

// TestGraphForgedDigestDecodes: a stored sum is adopted as the digest, not
// checked against the arcs at load — the structure is validated, the
// identity is trusted — and VerifyFingerprint is what refuses it, in every
// load mode.
func TestGraphForgedDigestDecodes(t *testing.T) {
	g := WithRandomWeights(RMAT(7, 5, 0.57, 0.19, 0.19, true, 11), 1, 5, 7)
	forged := forgeDigest(EncodeGraph(g))
	path := filepath.Join(t.TempDir(), "forged.dvg")
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LoadMode{LoadFlat, LoadCompact, LoadMmap} {
		dec, err := ReadGraphFile(path, mode)
		if err != nil {
			t.Fatalf("%v: forged digest refused at load: %v", mode, err)
		}
		if dec.Fingerprint() == g.Fingerprint() {
			t.Fatalf("%v: the forged sum was not adopted", mode)
		}
		if err := dec.VerifyFingerprint(); !errors.Is(err, ErrFingerprintMismatch) {
			t.Fatalf("%v: VerifyFingerprint = %v, want ErrFingerprintMismatch", mode, err)
		}
		dec.Close()
	}
}

// readCorpusBytes reads a one-value []byte entry of a Go fuzz corpus.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(value, "[]byte(")
	if header != "go test fuzz v1" || !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a []byte corpus entry", path)
	}
	b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(b)
}

// TestGraphV1FilesLoad: the checked-in seed-* images are version-1 files.
// Each valid one loads in every mode with no digest until asked, then
// computes the digest whose sum its version-2 re-encode stores; and that
// re-encode is the version-1 bytes with the sum inserted after the header.
func TestGraphV1FilesLoad(t *testing.T) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzGraphDecode", "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	loaded := 0
	for _, seed := range seeds {
		v1 := readCorpusBytes(t, seed)
		if len(v1) > 6 && v1[6] != 1 {
			t.Fatalf("%s: version %d, want a version-1 fixture", seed, v1[6])
		}
		if _, err := DecodeGraph(v1, LoadFlat); err != nil {
			continue // a malformed seed
		}
		loaded++
		path := filepath.Join(t.TempDir(), "v1.dvg")
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []LoadMode{LoadFlat, LoadCompact, LoadMmap} {
			g, err := ReadGraphFile(path, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", seed, mode, err)
			}
			if g.fp.Load() != 0 {
				t.Fatalf("%s %v: a version-1 file loaded with a digest", seed, mode)
			}
			fp := g.Fingerprint()
			v2 := EncodeGraph(g)
			sum := binary.LittleEndian.Uint64(v2[grafHeaderLen-8:])
			if sum != g.fpSum.Load() || finishFingerprint(g.n, g.directed, sum) != fp {
				t.Fatalf("%s %v: re-encode stores sum %016x, the lazy digest summed %016x", seed, mode, sum, g.fpSum.Load())
			}
			stripped := append([]byte{}, v2[:grafHeaderLen-8]...)
			stripped[6] = 1
			stripped = framing.Seal(append(stripped, v2[grafHeaderLen:len(v2)-4]...), 0)
			if !bytes.Equal(stripped, v1) {
				t.Fatalf("%s %v: the version-2 re-encode is not the version-1 image plus its sum", seed, mode)
			}
			g.Close()
		}
	}
	if loaded < 5 {
		t.Fatalf("%d loadable version-1 seeds, want at least 5", loaded)
	}
}
