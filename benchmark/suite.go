package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// Suite mode: every workload in a child process of its own (so heap numbers
// are per workload), untraced then traced, every metric printed by name.
// -check repeats the driver's acceptance protocol on the current code: two
// sets of ten seeds per workload, compared against BENCHMARK.json's bounds.

// benchFile is the part of BENCHMARK.json suite mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchFile() (*benchFile, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var f benchFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &f, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// environment is recorded with every suite result: numbers from different
// boxes or core counts are not comparable.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Race       bool    `json:"race"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
	// Unresolved is set when the box has no core to spare beside the one the
	// measurement runs on: every timing of the run is then reported but
	// settles nothing.
	Unresolved string `json:"unresolved,omitempty"`
}

func readEnvironment(seed int64, seconds float64, sz sizes) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Race: raceEnabled, Seed: seed, Seconds: seconds, Sizes: sz,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	switch {
	case env.NumCPU < 2:
		env.Unresolved = "fewer than 2 CPUs: the measured thread has no core to spare"
	case env.Race:
		env.Unresolved = "built with -race"
	}
	return env
}

// runner measures one workload once. Suite mode uses runChild; the tests
// substitute an in-process run at toy sizes.
type runner func(w workload, seed int64, seconds float64, traced bool) (*childResult, error)

// runChild re-executes this binary for one workload. A child that outlives
// its time box (the measured seconds plus set-up, warm-up and oracle
// allowance) is killed and the suite fails fast.
func runChild(w workload, seed int64, seconds float64, traced bool) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	box := time.Duration(seconds*float64(time.Second)) + 120*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), box)
	defer cancel()
	args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s exceeded its %v time box", w.name, box)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
	}
	return &res, nil
}

// workloadReport is one workload's row of the suite result. EndToEnd holds
// the metrics under BENCHMARK.json's names and, beside them, op_ms and
// baseline_ms under the names ISSUE 12 gave them on this workload.
type workloadReport struct {
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

type suiteReport struct {
	Environment environment               `json:"environment"`
	Workloads   map[string]workloadReport `json:"workloads"`
	Exact       []string                  `json:"exact"` // per-layer counts that must repeat for a seed
	Check       []checkRow                `json:"check,omitempty"`
	// Claim stays null: defining or re-running the benchmark claims no gain.
	Claim *string `json:"claim"`
}

// suiteMain is suite mode from the command line: every workload in a child
// process, the report printed and kept as .bench_build/results.json.
func suiteMain(seed int64, seconds float64, check bool) error {
	report, err := runSuite(seed, seconds, fullSizes, check, runChild)
	if report == nil {
		return err
	}
	out, merr := json.MarshalIndent(report, "", "  ")
	if merr != nil {
		return merr
	}
	if merr := os.MkdirAll(buildDir, 0o755); merr != nil {
		return merr
	}
	if werr := os.WriteFile(filepath.Join(buildDir, "results.json"), append(out, '\n'), 0o644); werr != nil {
		return werr
	}
	fmt.Println(string(out))
	return err
}

// runSuite measures every workload untraced then traced and prints every
// metric by name. A report comes back even when ops failed or -check found a
// breach; the error then says which.
func runSuite(seed int64, seconds float64, sz sizes, check bool, run runner) (*suiteReport, error) {
	report := &suiteReport{Environment: readEnvironment(seed, seconds, sz), Workloads: map[string]workloadReport{}}
	if u := report.Environment.Unresolved; u != "" {
		fmt.Fprintln(os.Stderr, "benchmark: warning:", u, "— results are unresolved")
	}
	for _, d := range perLayer {
		if d.Exact {
			report.Exact = append(report.Exact, d.Name)
		}
	}
	failed := 0
	for _, w := range workloads() {
		e2e, err := run(w, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		layers, err := run(w, seed, seconds, true)
		if err != nil {
			return nil, err
		}
		attempted := e2e.Attempted + layers.Attempted
		failed += e2e.Failed + layers.Failed
		for name, m := range w.issueNamed(e2e.Metrics) {
			e2e.Metrics[name] = m
		}
		report.Workloads[w.name] = workloadReport{
			Attempted: attempted, Failed: e2e.Failed + layers.Failed,
			FailedShare: ratio(float64(e2e.Failed+layers.Failed), float64(attempted)),
			EndToEnd:    e2e.Metrics, PerLayer: layers.Metrics,
		}
	}
	printSuite(report)
	var err error
	if check {
		report.Check, err = runCheck(seed, seconds, run)
	}
	if err == nil && failed > 0 {
		err = fmt.Errorf("%d ops failed", failed)
	}
	return report, err
}

func printSuite(r *suiteReport) {
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	row := func(w, name string, m metricValue) { fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", w, name, m.Value, m.Unit) }
	for _, w := range workloads() {
		wr := r.Workloads[w.name]
		row(w.name, "failed_share", metricValue{Value: wr.FailedShare, Unit: "ratio"})
		for _, d := range endToEnd {
			row(w.name, d.Name, wr.EndToEnd[d.Name])
		}
		for _, name := range []string{w.opName, w.baseName} { // op_ms and baseline_ms again, as the issue calls them
			if name != "" {
				row(w.name, name, wr.EndToEnd[name])
			}
		}
		for _, d := range perLayer {
			row(w.name, d.Name, wr.PerLayer[d.Name])
		}
	}
	tw.Flush()
}

// checkRow is one end-to-end metric × workload of a -check: the two sets'
// medians and spreads, and how far the second median is on the worse side of
// the first, against the metric's bound.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Median1  float64 `json:"median_1"`
	Median2  float64 `json:"median_2"`
	Noise    float64 `json:"noise"` // the larger of the two sets' (Q3-Q1)/median
	Gap      float64 `json:"gap"`   // > 0: the second set is worse
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"` // ok, unresolved (noise > bound) or breach (gap > bound)
}

// checkRuns is how many seeds one set of a -check holds, as the driver's do.
const checkRuns = 10

// judge compares two sets of runs of one metric on one workload.
func judge(a, b sample, better string, bound float64) checkRow {
	row := checkRow{Median1: a.median(), Median2: b.median(), Bound: bound, Verdict: "ok"}
	row.Noise = a.spread()
	if s := b.spread(); s > row.Noise {
		row.Noise = s
	}
	row.Gap = ratio(row.Median2-row.Median1, row.Median1)
	if better == "higher" {
		row.Gap = -row.Gap
	}
	switch {
	case row.Noise > bound:
		row.Verdict = "unresolved"
	case row.Gap > bound:
		row.Verdict = "breach"
	}
	return row
}

// runCheck measures the same code twice and holds it to its own bounds.
func runCheck(seed int64, seconds float64, run runner) ([]checkRow, error) {
	bf, err := readBenchFile()
	if err != nil {
		return nil, err
	}
	var rows []checkRow
	var problems []string
	for _, w := range workloads() {
		var sets [2]map[string]sample
		var exact [2]*childResult
		for set := range sets {
			sets[set] = map[string]sample{}
			for i := 0; i < checkRuns; i++ {
				res, err := run(w, seed+int64(i), seconds, false)
				if err != nil {
					return rows, err
				}
				if res.Failed > 0 {
					problems = append(problems, fmt.Sprintf("%s seed %d: %d ops failed", w.name, seed+int64(i), res.Failed))
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
			if exact[set], err = run(w, seed, seconds, true); err != nil {
				return rows, err
			}
		}
		for _, d := range perLayer {
			if a, b := exact[0].Metrics[d.Name].Value, exact[1].Metrics[d.Name].Value; d.Exact && a != b {
				problems = append(problems, fmt.Sprintf("%s: exact counter %s drifted between runs of seed %d: %v then %v", w.name, d.Name, seed, a, b))
			}
		}
		for _, m := range bf.EndToEnd {
			row := judge(sets[0][m.Name], sets[1][m.Name], m.Better, m.Bound)
			row.Workload, row.Metric = w.name, m.Name
			if row.Verdict == "breach" {
				problems = append(problems, fmt.Sprintf("%s %s: second median worse by %.1f%%, bound %.0f%%", w.name, m.Name, 100*row.Gap, 100*m.Bound))
			}
			rows = append(rows, row)
		}
	}
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian 1\tmedian 2\tgap\tnoise\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Median1, r.Median2, 100*r.Gap, 100*r.Noise, 100*r.Bound, r.Verdict)
	}
	tw.Flush()
	if len(problems) > 0 {
		return rows, fmt.Errorf("check failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return rows, nil
}
