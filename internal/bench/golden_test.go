package bench

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"text/tabwriter"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tables.txt")

const tablesFile = "testdata/tables.txt"

// renderCounts writes every deterministic column dvbench prints, at
// BenchWorkers workers: Table 1's |V| and |E|, Table 2's state bytes,
// Fig. 4/5's messages, combined envelopes, message bytes and supersteps,
// and the ablations' count columns. Runtimes and the ratios derived from
// them are left out; ε's max error is left out too, being a float of the
// run rather than a count.
func renderCounts(ctx context.Context, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	section := func(title, header string) {
		tw.Flush()
		fmt.Fprintf(w, "== %s ==\n", title)
		fmt.Fprintln(tw, header)
	}
	t1, err := Table1()
	if err != nil {
		return err
	}
	section("Table 1", "Dataset\t|V|\t|E|")
	for _, r := range t1 {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", r.Name, r.V, r.E)
	}
	t2, err := Table2()
	if err != nil {
		return err
	}
	section("Table 2", "Program\tdV\tdV*\tPalgol~\tPregel+")
	for _, r := range t2 {
		fmt.Fprintf(tw, "%s\t%dB\t%dB\t%dB\t%dB\n", r.Program, r.DV, r.DVStar, r.Palgol, r.Pregel)
	}
	for _, fig := range []struct {
		title string
		run   func(context.Context, int) ([]PerfRow, error)
	}{{"Figure 4", Figure4}, {"Figure 5", Figure5}} {
		rows, err := fig.run(ctx, 1)
		if err != nil {
			return err
		}
		section(fig.title, "Dataset\tProgram\tVariant\tMessages\tCombined\tMsg bytes\tSupersteps")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\n", r.Dataset, r.Program, r.Variant, r.Messages, r.Combined, r.Bytes, r.Steps)
		}
	}
	ds := AblationDataset
	mt, err := AblationMemoTable(ctx, ds, 1)
	if err != nil {
		return err
	}
	section("Ablation: memo table, "+ds, "Program\tVariant\tMessages\tMsg bytes\tState bytes/vertex")
	for _, r := range mt {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\n", r.Program, r.Variant, r.Messages, r.MsgBytes, r.StateBytes)
	}
	eps, err := AblationEpsilon(ctx, ds, AblationEpsilons)
	if err != nil {
		return err
	}
	section("Ablation: ε-slop, "+ds, "Epsilon\tMessages\tSupersteps")
	for _, r := range eps {
		fmt.Fprintf(tw, "%g\t%d\t%d\n", r.Epsilon, r.Messages, r.Steps)
	}
	sched, err := AblationScheduler(ctx, ds, 1)
	if err != nil {
		return err
	}
	section("Ablation: scheduler, "+ds, "Program\tScheduler\tVertices run")
	for _, r := range sched {
		fmt.Fprintf(tw, "%s\t%s\t%d\n", r.Program, r.Scheduler, r.Active)
	}
	comb, err := AblationCombiner(ctx, ds, 1)
	if err != nil {
		return err
	}
	section("Ablation: combiner, "+ds, "Program\tCombiner\tMessages\tDelivered")
	for _, r := range comb {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%d\n", r.Program, r.Combine, r.Messages, r.Combined)
	}
	return tw.Flush()
}

// TestPaperTablesGolden recomputes every count dvbench prints and compares
// it with testdata/tables.txt: a change that moves a message, byte,
// superstep or state count of the paper's tables shows as a diff here.
// Regenerate, deliberately, with:
// go test ./internal/bench -run PaperTablesGolden -update-golden
func TestPaperTablesGolden(t *testing.T) {
	var got strings.Builder
	if err := renderCounts(context.Background(), &got); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(tablesFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(tablesFile)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(raw), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d:\n%s", len(gotLines), tablesFile, len(wantLines), got.String())
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			bad++
			t.Errorf("%s:%d\n got %s\nwant %s", tablesFile, i+1, gotLines[i], wantLines[i])
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d lines differ", bad, len(gotLines))
	}
}
