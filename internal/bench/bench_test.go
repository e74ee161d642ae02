package bench

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// The bench package's own tests use the smallest dataset to stay fast; the
// full-size runs are cmd/dvbench's.
const testDS = "livejournal-ug-s"

func TestTable1(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["wikipedia-s"].Type != "Directed" || byName["facebook-s"].Type != "Undirected" {
		t.Fatalf("directedness wrong: %+v", byName)
	}
	// Density ratios should roughly track the paper's datasets.
	w := byName["wikipedia-s"]
	if ratio := float64(w.E) / float64(w.V); ratio < 3 || ratio > 12 {
		t.Fatalf("wikipedia-s |E|/|V| = %.1f, want ≈ 7.5", ratio)
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Wikipedia") || !strings.Contains(buf.String(), "136.54M") {
		t.Fatalf("render missing content:\n%s", buf.String())
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.DV < r.DVStar {
			t.Errorf("%s: ΔV state %d < ΔV★ %d", r.Program, r.DV, r.DVStar)
		}
		if r.DV-r.DVStar > 24 {
			t.Errorf("%s: incrementalization overhead %dB — paper says it is 'fairly minimal'", r.Program, r.DV-r.DVStar)
		}
		if r.Pregel <= 0 || r.Pregel > r.DV {
			t.Errorf("%s: handwritten state %dB out of range (compiled %dB)", r.Program, r.Pregel, r.DV)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pagerank") {
		t.Fatal("render missing pagerank row")
	}
}

func TestMeasureShapesOnSmallDataset(t *testing.T) {
	byVariant := map[string]PerfRow{}
	for _, variant := range []string{VariantDV, VariantDVStar, VariantPregel} {
		r, err := Measure(context.Background(), "cc", testDS, variant, 1)
		if err != nil {
			t.Fatal(err)
		}
		byVariant[variant] = r
	}
	// §7.2: ΔV and ΔV★ send the exact same number of messages for CC.
	if byVariant[VariantDV].Messages != byVariant[VariantDVStar].Messages {
		t.Fatalf("CC messages: dV=%d dV*=%d, want equal",
			byVariant[VariantDV].Messages, byVariant[VariantDVStar].Messages)
	}
	// And the handwritten reference sends the same number too (same
	// algorithm, same engine).
	if byVariant[VariantDV].Messages != byVariant[VariantPregel].Messages {
		t.Fatalf("CC messages: dV=%d Pregel+=%d, want equal",
			byVariant[VariantDV].Messages, byVariant[VariantPregel].Messages)
	}
}

func TestPageRankReductionShape(t *testing.T) {
	dv, err := Measure(context.Background(), "pagerank", testDS, VariantDV, 1)
	if err != nil {
		t.Fatal(err)
	}
	star, err := Measure(context.Background(), "pagerank", testDS, VariantDVStar, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dv.Messages >= star.Messages {
		t.Fatalf("pagerank: dV %d >= dV* %d messages — no reduction", dv.Messages, star.Messages)
	}
	sums := Summarize([]PerfRow{dv, star})
	if len(sums) != 1 || sums[0].MsgReduction <= 1 {
		t.Fatalf("summary = %+v", sums)
	}
	var buf bytes.Buffer
	if err := RenderSummary(&buf, sums); err != nil {
		t.Fatal(err)
	}
	if err := RenderPerf(&buf, "test", []PerfRow{dv, star}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureErrors(t *testing.T) {
	if _, err := Measure(context.Background(), "pagerank", "nope", VariantDV, 1); err == nil {
		t.Fatal("unknown dataset should fail")
	}
	if _, err := Measure(context.Background(), "pagerank", testDS, "nope", 1); err == nil {
		t.Fatal("unknown variant should fail")
	}
	if _, err := Measure(context.Background(), "nope", testDS, VariantPregel, 1); err == nil {
		t.Fatal("unknown handwritten program should fail")
	}
}

func TestAblations(t *testing.T) {
	t.Run("memotable", func(t *testing.T) {
		rows, err := AblationMemoTable(context.Background(), testDS, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d, want 4", len(rows))
		}
		// The strawman must carry heavier messages and state than ΔV.
		var inc, tbl MemoTableRow
		for _, r := range rows {
			if r.Program != "pagerank" {
				continue
			}
			if r.Variant == "dV" {
				inc = r
			} else {
				tbl = r
			}
		}
		if tbl.MsgBytes <= inc.MsgBytes {
			t.Fatalf("table msg bytes %d <= dV %d", tbl.MsgBytes, inc.MsgBytes)
		}
		if tbl.StateBytes <= inc.StateBytes {
			t.Fatalf("table state %f <= dV %f", tbl.StateBytes, inc.StateBytes)
		}
		var buf bytes.Buffer
		if err := RenderMemoTable(&buf, rows); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("epsilon", func(t *testing.T) {
		rows, err := AblationEpsilon(context.Background(), testDS, []float64{0, 1e-9, 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].MaxErr > 1e-9 {
			t.Fatalf("ε=0 must be exact, err=%g", rows[0].MaxErr)
		}
		if rows[2].Messages > rows[0].Messages {
			t.Fatalf("ε=1e-6 sent more messages (%d) than exact (%d)", rows[2].Messages, rows[0].Messages)
		}
		var buf bytes.Buffer
		if err := RenderEpsilon(&buf, testDS, rows); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("scheduler", func(t *testing.T) {
		rows, err := AblationScheduler(context.Background(), testDS, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d, want 4", len(rows))
		}
		var buf bytes.Buffer
		if err := RenderScheduler(&buf, rows); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("combiner", func(t *testing.T) {
		rows, err := AblationCombiner(context.Background(), testDS, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rows[1].Combined >= rows[0].Combined {
			t.Fatalf("combiner delivered %d >= uncombined %d", rows[1].Combined, rows[0].Combined)
		}
		var buf bytes.Buffer
		if err := RenderCombiner(&buf, rows); err != nil {
			t.Fatal(err)
		}
	})
}

// countdownCtx cancels itself after a fixed number of Err() calls. The
// engine polls ctx.Err() only at barriers from the master loop, so the call
// count of a run is deterministic — which lets tests abort exactly between
// two measurements of a figure.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	limit int64 // <= 0: count only, never cancel
}

func (c *countdownCtx) Err() error {
	if n := c.calls.Add(1); c.limit > 0 && n > c.limit {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestFigure5PartialRowsOnAbort is the regression test for the mid-suite
// abort fix: an abort during the second measurement must still return the
// first, completed row alongside the error (it used to discard everything).
func TestFigure5PartialRowsOnAbort(t *testing.T) {
	// Count the barrier checks of one full first measurement...
	counting := &countdownCtx{Context: context.Background()}
	if _, err := Measure(counting, "cc", Figure5Datasets[0], Variants[0], 1); err != nil {
		t.Fatal(err)
	}
	// ...then allow exactly that many: the first Figure5 measurement
	// completes, the second aborts at its first barrier.
	ctx := &countdownCtx{Context: context.Background(), limit: counting.calls.Load()}
	rows, err := Figure5(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rows) != 1 {
		t.Fatalf("partial rows = %d, want exactly the 1 completed measurement", len(rows))
	}
	if rows[0].Dataset != Figure5Datasets[0] || rows[0].Variant != Variants[0] {
		t.Fatalf("partial row = %+v, want %s/%s", rows[0], Figure5Datasets[0], Variants[0])
	}
	if rows[0].Seconds <= 0 || rows[0].Steps <= 0 {
		t.Fatalf("partial row not a real measurement: %+v", rows[0])
	}
}
