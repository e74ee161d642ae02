// Command benchmark is the repository's benchmark: five workloads over the
// ΔV compiler, VM, BSP engine, checkpoint chain, serving daemon and socket
// transport, each checked against an oracle. See README.md.
//
//	bash benchmark/run.sh --workload converge-dense --seed 1 --seconds 20 --trace 0
//
// runs one workload the way BENCHMARK.json's driver does and prints one JSON
// object as the last line. Without --workload (go run ./benchmark -seed 1) it
// runs every workload, traced and untraced, and prints every metric by name;
// add -check to also run the driver's acceptance protocol on the current code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workload is one named set of inputs and the op loop run on it. opName and
// baseName are ISSUE 12's names for what op_ms and baseline_ms hold on this
// workload (a name ending in _s is printed in seconds); baseName is empty
// where the issue defines no second path and baseline_ms mirrors op_ms.
type workload struct {
	name             string
	run              func(c *runCtx) error
	opName, baseName string
}

func workloads() []workload {
	return []workload{
		{"converge-dense", func(c *runCtx) error { return runConverge(c, convergeDense(c.sz)) }, "converge_s", ""},
		{"converge-sparse", func(c *runCtx) error { return runConverge(c, convergeSparse(c.sz)) }, "converge_s", ""},
		{"serve-churn", runServeChurn, "repair_visible_ms", "fallback_visible_ms"},
		{"serve-restart", runServeRestart, "restart_s", ""},
		{"shard2-dense", runShard, "shard_superstep_ms", "inproc_superstep_ms"},
	}
}

// issueNamed returns a workload's op_ms and baseline_ms under the names
// ISSUE 12 gave them, which later issues cite.
func (w workload) issueNamed(metrics map[string]metricValue) map[string]metricValue {
	out := map[string]metricValue{}
	for name, from := range map[string]string{w.opName: "op_ms", w.baseName: "baseline_ms"} {
		switch {
		case name == "":
		case strings.HasSuffix(name, "_s"):
			out[name] = metricValue{Value: metrics[from].Value / 1e3, Unit: "s"}
		default:
			out[name] = metrics[from]
		}
	}
	return out
}

// buildDir is where every file the benchmark writes goes, relative to the
// directory it was started from.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs the whole suite")
		seed    = flag.Int64("seed", 1, "seed every input is derived from")
		seconds = flag.Float64("seconds", 20, "how long one run measures (BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and spans")
		check   = flag.Bool("check", false, "suite mode: also measure every workload on two sets of ten seeds and hold the sets to BENCHMARK.json's bounds")
	)
	flag.Parse()
	var err error
	if *name == "" {
		err = suiteMain(*seed, *seconds, *check)
	} else {
		err = runOne(*name, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's contract: run one workload, check its answers, and
// print {"correct","attempted","failed","metrics"} as the last line.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: warning: fewer than 2 CPUs; the measured thread has no core to spare for the kernel, timings are not comparable")
	}
	for _, w := range workloads() {
		if w.name != name {
			continue
		}
		res, err := measure(w, seed, seconds, traced, fullSizes, buildDir)
		if err != nil {
			return err
		}
		if !traced { // the traced pass reports layers, not op_ms
			for alias, m := range w.issueNamed(res.Metrics) {
				fmt.Fprintf(os.Stderr, "benchmark: %s = %.6g %s\n", alias, m.Value, m.Unit)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}

// measure runs one workload in this process, on procs Ps: the end-to-end
// metrics, or with traced the per-layer ones, whose spans go to
// out/spans-<workload>.json. Scratch files live under out/tmp and are removed
// before it returns.
func measure(w workload, seed int64, seconds float64, traced bool, sz sizes, out string) (*childResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	refWarm()
	base := filepath.Join(out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "w")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	c := &runCtx{seed: seed, seconds: seconds, sz: sz, dir: dir, res: newResult()}
	defs := endToEnd
	if traced {
		c.tr = newTracer()
		defs = perLayer
	}
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		if err := c.tr.writeFile(filepath.Join(out, "spans-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	for _, f := range c.res.failures {
		fmt.Fprintln(os.Stderr, "benchmark: failed op:", f)
	}
	if c.res.attempted < 1 {
		return nil, fmt.Errorf("%s: no op was attempted", w.name)
	}
	res := &childResult{Correct: c.res.failed == 0, Attempted: c.res.attempted, Failed: c.res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: c.res.values[d.Name], Unit: d.Unit}
	}
	// A metric reported under a name the tables lack would be dropped here
	// without a trace.
	for name := range c.res.values {
		if !defined(name) {
			return nil, fmt.Errorf("%s: metric %s is reported but in neither table", w.name, name)
		}
	}
	return res, nil
}

func defined(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// childResult is the last line a single-workload run prints.
type childResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportOps prints the timing summary of one op kind to standard error:
// sample count, the median the metric reports, quartiles and the highest
// percentile with ten samples beyond it.
func reportOps(kind string, s sample) {
	q1, q2, q3 := s.quartiles()
	tail := ""
	if p, ok := tailPercentile(len(s)); ok {
		tail = fmt.Sprintf(" p%g=%.3f", p, s.percentile(p))
	}
	fmt.Fprintf(os.Stderr, "benchmark: %-9s n=%d median=%.3f ms q1=%.3f q3=%.3f%s\n", kind, len(s), q2, q1, q3, tail)
}
