package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFormatBytesPinned: EncodeGraph writes the same DVGRAF bytes it wrote
// when these digests were recorded, for each representation and flag
// combination. A refactor of the codec must leave the files on disk
// unchanged; a deliberate format change moves GraphFormatVersion and
// re-records the digests.
func TestFormatBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"flat", RMAT(6, 4, 0.57, 0.19, 0.19, true, 5), "a7bd3361aa2dbb62b5bf06d07ec3e8838f2655fe9b00633e2aa3042f7685453f"},
		{"compact", MustCompact(RMAT(6, 4, 0.57, 0.19, 0.19, true, 5)), "a7bd3361aa2dbb62b5bf06d07ec3e8838f2655fe9b00633e2aa3042f7685453f"},
		{"weighted", WithRandomWeights(Grid(5, 7, 9, 3), 1, 4, 6), "017640801b64ffc56fb6414fc67b3f980e9d5f197776e768d310b02a768c6e14"},
		{"undirected", Star(9, false), "8f3b743d29d4da1aa8d7982ef932fd8870bafc86c367362d55c56382c95aecda"},
		{"empty", NewBuilder(0, true).Finalize(), "1c1fbaacc6d2f58b91db1785589bfef0a94ec1e154e9b162ed98ed74fcc1dd5d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(EncodeGraph(tc.g))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("DVGRAF digest %s, recorded %s", got, tc.want)
			}
		})
	}
}
