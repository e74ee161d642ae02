package pregel

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFormatBytesPinned: the encoders still write the bytes checked in as
// each decoder's valid fuzz seed. A refactor of the codecs must leave the
// files on disk unchanged; a deliberate format change moves the version
// constant and regenerates these seeds.
func TestFormatBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		target string
		enc    func() []byte
	}{
		{"FuzzSnapshotDecode", fuzzSeedSnapshot},
		{"FuzzSnapshotDeltaDecode", fuzzSeedSnapshotDelta},
		{"FuzzChainDecode", fuzzSeedChainManifest},
	} {
		t.Run(tc.target, func(t *testing.T) {
			want := readFuzzSeed(t, filepath.Join("testdata", "fuzz", tc.target, "valid"))
			if got := tc.enc(); !bytes.Equal(got, want) {
				t.Fatalf("encoder wrote %d bytes that differ from the %d checked in:\n got %q\nwant %q",
					len(got), len(want), got, want)
			}
		})
	}
}

// readFuzzSeed decodes a one-value []byte corpus file ("go test fuzz v1").
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(body, ")") {
		t.Fatalf("%s is not a single []byte corpus entry", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
