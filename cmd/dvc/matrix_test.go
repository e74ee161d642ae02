package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/programs"
)

// updateMatrix regenerates the capability-matrix goldens instead of
// comparing against them: the corpus matrix must change deliberately
// (`go test ./cmd/dvc -run VetCapabilityMatrix -update-matrix`), never by
// drift — CI runs the comparison on every push.
var updateMatrix = flag.Bool("update-matrix", false, "rewrite testdata/vet/matrix goldens")

var matrixModes = []string{"dv", "dvstar", "memotable"}

// TestVetCapabilityMatrixGoldens pins the rendered repairability matrix —
// `dvc vet -analyzers repairability -severity info` — for every embedded
// program × mode.
func TestVetCapabilityMatrixGoldens(t *testing.T) {
	for _, name := range programs.Names() {
		for _, mode := range matrixModes {
			name, mode := name, mode
			t.Run(name+"/"+mode, func(t *testing.T) {
				out := mustDVC(t, "vet", "-program", name, "-mode", mode,
					"-severity", "info", "-analyzers", "repairability")
				golden := filepath.Join("testdata", "vet", "matrix", name+"."+mode+".golden")
				if *updateMatrix {
					if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				if out != string(want) {
					t.Fatalf("capability matrix differs from %s (regenerate deliberately with -update-matrix):\n--- got ---\n%s--- want ---\n%s",
						golden, out, want)
				}
			})
		}
	}
}

// TestVetMatrixJSON pins the machine-readable form of the matrix: five
// info findings, one per delta class, each attributed to the
// repairability analyzer.
func TestVetMatrixJSON(t *testing.T) {
	out := mustDVC(t, "vet", "-program", "sssp", "-mode", "memotable",
		"-severity", "info", "-analyzers", "repairability", "-json")
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(rep.Diagnostics) != 5 {
		t.Fatalf("diagnostics = %d, want 5:\n%s", len(rep.Diagnostics), out)
	}
	classes := map[string]string{}
	for _, d := range rep.Diagnostics {
		if d.Severity != "info" || d.Code != "repairability" {
			t.Fatalf("diagnostic = %+v", d)
		}
		cls, rest, ok := strings.Cut(d.Message, ": ")
		if !ok {
			t.Fatalf("unparseable matrix message %q", d.Message)
		}
		classes[cls] = rest
	}
	if got := classes["arc-add"]; !strings.Contains(got, "repairable (table-update)") {
		t.Fatalf("arc-add = %q", got)
	}
	if got := classes["weight-loosen"]; !strings.Contains(got, "fallback required") {
		t.Fatalf("weight-loosen = %q", got)
	}
	// The default severity hides the matrix: same invocation minus
	// -severity info reports nothing.
	out = mustDVC(t, "vet", "-program", "sssp", "-mode", "memotable",
		"-analyzers", "repairability")
	if strings.TrimSpace(out) != "" {
		t.Fatalf("matrix leaked at default severity:\n%s", out)
	}
}
