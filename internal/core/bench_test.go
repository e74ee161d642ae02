package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/programs"
)

// BenchmarkCompile measures raw compiler throughput over the corpus.
func BenchmarkCompile(b *testing.B) {
	for _, mode := range []core.Mode{core.Incremental, core.Baseline} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, name := range programs.Names() {
					if _, err := core.Compile(programs.MustSource(name), core.Options{Mode: mode}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
