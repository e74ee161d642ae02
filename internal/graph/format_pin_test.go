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
		{"flat", RMAT(6, 4, 0.57, 0.19, 0.19, true, 5), "658ac02412e320eaf8b8a4050bf2725f6bbdf1d953d74fc7e4e7199c22572fa7"},
		{"compact", MustCompact(RMAT(6, 4, 0.57, 0.19, 0.19, true, 5)), "658ac02412e320eaf8b8a4050bf2725f6bbdf1d953d74fc7e4e7199c22572fa7"},
		{"weighted", WithRandomWeights(Grid(5, 7, 9, 3), 1, 4, 6), "2753dff4571557a35b193fcd276296eb029157c667e7d1c9eb4f4969a841d478"},
		{"undirected", Star(9, false), "2736a42db5b05212343730cc80fff6a6a8ccd4b4a703e39467d0d8fcef6fee8a"},
		{"empty", NewBuilder(0, true).Finalize(), "b63099cdcf03abc924600d05cff0db993070ced19115436af9026f52f9b64e26"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(EncodeGraph(tc.g))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("DVGRAF digest %s, recorded %s", got, tc.want)
			}
		})
	}
}
