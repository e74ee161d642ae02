package analysis

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/deltav/diag"
	"repro/internal/programs"
)

// TestVetCorpusAllModes pins the full program × mode matrix: no program
// has an error in any mode, and the only warning is prod's disabled
// halt-by-default (its body folds the iteration counter into state).
func TestVetCorpusAllModes(t *testing.T) {
	for _, name := range programs.Names() {
		src := programs.MustSource(name)
		for _, mode := range []core.Mode{core.Incremental, core.Baseline, core.MemoTable} {
			name, mode := name, mode
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				diags, err := VetSource(src, Config{Mode: mode}, nil)
				if err != nil {
					t.Fatalf("front end rejected corpus program: %v", err)
				}
				if diags.HasErrors() {
					t.Fatalf("errors in a corpus program:\n%v", diags)
				}
				var warns diag.List
				for _, d := range diags {
					if d.Severity == diag.Warning {
						warns = append(warns, d)
					}
				}
				switch name {
				case "prod":
					if len(warns) != 1 || warns[0].Code != "initonly" {
						t.Fatalf("prod warnings = %v, want one initonly", warns)
					}
				default:
					if len(warns) != 0 {
						t.Fatalf("unexpected warnings: %v", warns)
					}
				}
			})
		}
	}
}

// TestNegativeFixtures runs each analyzer in isolation over a fixture
// crafted to trigger it, pinning finding count, severity and line.
func TestNegativeFixtures(t *testing.T) {
	type want struct {
		severity diag.Severity
		line     int
	}
	cases := []struct {
		file     string
		analyzer string
		cfg      Config
		want     []want
	}{
		{"meaningless.dv", "meaningfulness", Config{Mode: core.Incremental},
			[]want{{diag.Warning, 8}}},
		{"noconverge.dv", "convergence", Config{Mode: core.Incremental},
			[]want{{diag.Warning, 10}}},
		{"eps_float.dv", "convergence", Config{Mode: core.Incremental},
			[]want{{diag.Warning, 7}}},
		{"eps_float.dv", "convergence", Config{Mode: core.Incremental, Epsilon: 0.001}, nil},
		{"deadfield.dv", "deadfield", Config{Mode: core.Incremental},
			[]want{{diag.Warning, 2}, {diag.Warning, 5}}},
		{"shadow.dv", "shadow", Config{Mode: core.Incremental},
			[]want{{diag.Warning, 8}, {diag.Warning, 9}}},
		{"counterdrive.dv", "initonly", Config{Mode: core.Incremental},
			[]want{{diag.Warning, 6}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file+"/"+tc.analyzer+"/"+tc.cfg.Mode.String(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			as, err := ByName([]string{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			diags, err := VetSource(string(src), tc.cfg, as)
			if err != nil {
				t.Fatalf("front end rejected fixture: %v", err)
			}
			if len(diags) != len(tc.want) {
				t.Fatalf("findings = %d, want %d:\n%v", len(diags), len(tc.want), diags)
			}
			for i, w := range tc.want {
				d := diags[i]
				if d.Severity != w.severity || d.Pos.Line != w.line || d.Code != tc.analyzer {
					t.Errorf("finding %d = %v, want severity %s at line %d", i, d, w.severity, w.line)
				}
			}
		})
	}
}

// TestFixturesCompile guards against fixtures that only vet-fail: every
// fixture must still be a valid ΔV program.
func TestFixturesCompile(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.dv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Compile(string(src), core.Options{}); err != nil {
			t.Errorf("%s does not compile: %v", f, err)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("analyzers = %d, want 6", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name < all[j].Name }) {
		t.Fatal("All() not sorted by name")
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("incomplete analyzer %+v", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("ByName accepted unknown analyzer")
	}
	as, err := ByName([]string{"shadow", "deadfield"})
	if err != nil || len(as) != 2 || as[0].Name != "shadow" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
}

// TestReportForcesCode pins that findings are always attributable to the
// analyzer that produced them.
func TestReportForcesCode(t *testing.T) {
	p := &Pass{Analyzer: &Analyzer{Name: "myname"}}
	p.Report(diag.Diagnostic{Code: "spoofed", Message: "m"})
	if p.diags[0].Code != "myname" {
		t.Fatalf("code = %q, want myname", p.diags[0].Code)
	}
}
