package pregel

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// testdata/v1 holds one snapshot and one chain manifest written at format
// version 1 (sssp on a 3×3 grid), when graph fingerprints were an FNV hash
// of the CSR arrays. They must be refused for their version: decoding them
// and then comparing fingerprints would blame the operator's boot graph
// for what is a format change.
func TestV1FilesRefusedByVersion(t *testing.T) {
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: err = %v, want ErrSnapshotVersion (and not ErrSnapshotMismatch)", what, err)
		}
	}
	snap := filepath.Join("testdata", "v1", "snap.dvsnap")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = DecodeSnapshot(b)
	refused("DecodeSnapshot", err)

	chain := filepath.Join("testdata", "v1", "chain")
	if !IsChainDir(chain) {
		t.Fatalf("%s is not a chain directory", chain)
	}
	_, err = LoadChain(chain)
	refused("LoadChain", err)
	_, _, err = OpenChain(chain, 0)
	refused("OpenChain", err)
}
