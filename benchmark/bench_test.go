package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/graph"
)

func TestPercentiles(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}
	if got := s.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := s.percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := s.percentile(100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := s.percentile(90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := (sample{}).median(); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if s[0] != 5 {
		t.Error("percentile reordered its receiver")
	}
}

// The driver measures spread with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         sample
		q1, q2, q3 float64
	}{
		{sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{sample{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{sample{10, 20}, 7.5, 15, 22.5},
		{sample{7}, 7, 7, 7},
	} {
		q1, q2, q3 := tc.in.quartiles()
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := (sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// A tail percentile is only reported with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 1, Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "graph.Read", Op: 1, Parent: 0, StartNS: 10, EndNS: 30},  // sibling 1
		{Name: "vm.Run", Op: 1, Parent: 0, StartNS: 30, EndNS: 90},      // sibling 2
		{Name: "pregel.Step", Op: 1, Parent: 2, StartNS: 40, EndNS: 60}, // nested under vm.Run
		{Name: "pregel.Step", Op: 1, Parent: 2, StartNS: 55, EndNS: 80}, // overlaps its sibling
		{Name: "vm.Late", Op: 1, Parent: 0, StartNS: 95, EndNS: 120},    // runs past its parent: clipped
		{Name: "probe", Op: 2, Parent: -1, StartNS: 200, EndNS: 250},    // another root
	}
	want := []time.Duration{100 - 20 - 60 - 5, 20, 60 - 40, 20, 25, 25, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers, total := layerSelf(spans, "op")
	if total != 100 {
		t.Errorf("op total = %d, want 100", total)
	}
	for layer, d := range map[string]time.Duration{"op": 15, "graph": 20, "vm": 45, "pregel": 45} {
		if layers[layer] != d {
			t.Errorf("layer %s self = %d, want %d", layer, layers[layer], d)
		}
	}
	if _, ok := layers["probe"]; ok {
		t.Error("a span under another root was counted")
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	ran := false
	none.runOp("op", func() { none.do("x.y", func() { ran = true }) })
	if !ran {
		t.Fatal("nil tracer did not run the body")
	}
	tr := newTracer()
	tr.runOp("op", func() {
		tr.do("a.f", func() { tr.do("b.g", func() {}) })
		tr.do("a.h", func() {})
	})
	tr.runOp("op", func() {})
	wantParents := []int{-1, 0, 1, 0, -1}
	wantOps := []int{1, 1, 1, 1, 2}
	if len(tr.spans) != len(wantParents) {
		t.Fatalf("%d spans, want %d", len(tr.spans), len(wantParents))
	}
	for i, s := range tr.spans {
		if s.Parent != wantParents[i] || s.Op != wantOps[i] || s.EndNS < s.StartNS {
			t.Errorf("span %d = %+v, want parent %d op %d", i, s, wantParents[i], wantOps[i])
		}
	}
	if got := len(tr.durations("op", "a.f")); got != 1 {
		t.Errorf("durations(op, a.f) has %d entries, want 1", got)
	}
	if got := len(tr.durations("baseline", "a.f")); got != 0 {
		t.Errorf("durations(baseline, a.f) has %d entries, want 0", got)
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestInputsFollowSeed(t *testing.T) {
	stream := func(seed int64) uint64 {
		m := newMutStream(seed, 1<<10, toySizes)
		var batches [][]graph.Mutation
		for i := 0; i < 40; i++ {
			batches = append(batches, m.next())
		}
		return digestMutations(batches)
	}
	keys := func(seed int64) uint64 {
		r := newReadKeys(seed, 1<<10)
		var vals []float64
		for i := 0; i < 100; i++ {
			v, nb := r.next()
			vals = append(vals, float64(v))
			if nb != (i%16 == 15) {
				t.Fatalf("read %d: neighbors=%v", i, nb)
			}
		}
		return digestFloats(vals)
	}
	graphFP := func(seed int64) uint64 { return weightedRMAT(8, 4, seed).Fingerprint() }
	for name, f := range map[string]func(int64) uint64{"mutation stream": stream, "read keys": keys, "graph": graphFP} {
		if f(1) != f(1) {
			t.Errorf("%s: seed 1 gave two different digests", name)
		}
		if f(1) == f(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", name)
		}
	}
}

func TestMutStreamShape(t *testing.T) {
	sz := toySizes
	m := newMutStream(3, 1<<9, sz)
	added := map[[2]graph.VertexID]bool{}
	for i := 1; i <= 64; i++ {
		muts := m.next()
		adds, removes := 0, 0
		for _, mu := range muts {
			key := [2]graph.VertexID{mu.U, mu.V}
			switch mu.Op {
			case graph.MutAddEdge:
				if mu.U == mu.V || added[key] || mu.W < 1 || mu.W >= 10 {
					t.Fatalf("batch %d: bad addition %+v", i, mu)
				}
				added[key] = true
				adds++
			case graph.MutRemoveEdge:
				if !added[key] {
					t.Fatalf("batch %d removes %v, which no earlier batch added (or which was removed before)", i, key)
				}
				delete(added, key) // never removed twice
				removes++
			default:
				t.Fatalf("batch %d: unexpected op %v", i, mu.Op)
			}
		}
		wantRemoves := 0
		if i%sz.RemoveEvery == 0 {
			wantRemoves = 1
		}
		if adds != sz.BatchAdds || removes != wantRemoves {
			t.Fatalf("batch %d: %d adds %d removes, want %d and %d", i, adds, removes, sz.BatchAdds, wantRemoves)
		}
	}
}

func TestSSSPOracleAgreesWithReference(t *testing.T) {
	for _, g := range []*graph.Graph{weightedGrid(12, 5), weightedRMAT(8, 4, 5)} {
		src := maxOutDegreeVertex(g)
		if err := sameBits(ssspOracle(g, src), algorithms.SSSPOracle(g, src)); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}

func TestCompareHelpers(t *testing.T) {
	inf := math.Inf(1)
	if err := sameBits([]float64{1, inf}, []float64{1, inf}); err != nil {
		t.Errorf("sameBits on equal vectors: %v", err)
	}
	if sameBits([]float64{0}, []float64{math.Copysign(0, -1)}) == nil {
		t.Error("sameBits took +0 for -0")
	}
	if sameBits([]float64{1}, []float64{1, 2}) == nil {
		t.Error("sameBits ignored a length mismatch")
	}
	if err := within([]float64{1, 2}, []float64{1 + 1e-10, 2}, 1e-9); err != nil {
		t.Errorf("within: %v", err)
	}
	if within([]float64{1}, []float64{1.1}, 1e-9) == nil {
		t.Error("within accepted a value off by 0.1")
	}
	if within([]float64{math.NaN()}, []float64{1}, 1e-9) == nil {
		t.Error("within accepted NaN")
	}
}

func TestEpochOf(t *testing.T) {
	for body, want := range map[string]int64{
		"{\n  \"epoch\": 33,\n  \"value\": 1.5\n}\n": 33,
		`{"epoch":7,"value":2}`:                      7,
		"":                                           0, // a +Inf value: 200 with an empty body
		`{"error": "x"}`:                             0,
	} {
		if got := epochOf([]byte(body)); got != want {
			t.Errorf("epochOf(%q) = %d, want %d", body, got, want)
		}
	}
}

// The reader must not read while the mutator holds it: a reference reading
// shares the one P with it.
func TestReaderStandsAside(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{"epoch": 1}`)) })
	rd := newReader(h, newReadKeys(1, 100), false)
	rd.hold.Store(true)
	stop, done := make(chan struct{}), make(chan struct{})
	go rd.runUntil(stop, done)
	time.Sleep(20 * time.Millisecond)
	if n := rd.reads.Load(); n != 0 {
		t.Errorf("%d reads while held", n)
	}
	rd.hold.Store(false)
	for deadline := time.Now().Add(5 * time.Second); rd.reads.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if rd.reads.Load() == 0 || rd.bad != 0 {
		t.Errorf("%d reads, %d bad after release", rd.reads.Load(), rd.bad)
	}
}

// live_heap_mb and the collector's pacing must not see the reference table.
func TestReferenceTableIsOutsideTheHeap(t *testing.T) {
	refWarm()
	if mb, table := liveHeapMB(), float64(len(refTable)>>20); mb > table/2 {
		t.Errorf("live heap %.1f MB with a %v MB reference table: it is on the heap", mb, table)
	}
	if k := refScale(func() {}); !(k > 0) || math.IsInf(k, 0) {
		t.Errorf("refScale = %v", k)
	}
}

func TestExactCounterGuard(t *testing.T) {
	r := newResult()
	r.exact("x", 7)
	r.exact("x", 7)
	if r.failed != 0 {
		t.Fatalf("a repeating counter failed %d ops", r.failed)
	}
	r.exact("x", 8)
	if r.failed != 1 || r.values["x"] != 7 {
		t.Fatalf("drift: failed=%d value=%v, want 1 failed op and the first value kept", r.failed, r.values["x"])
	}
}

// toyRunner measures a workload in this process at toy sizes, with every
// oracle on.
func toyRunner(t *testing.T) runner {
	// Unix socket paths are limited to ~100 bytes, so the scratch directory is
	// made short rather than taken from t.TempDir.
	dir, err := os.MkdirTemp("", "dvb")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return func(w workload, seed int64, seconds float64, traced bool) (*childResult, error) {
		return measure(w, seed, seconds, traced, toySizes, dir)
	}
}

// The smoke test runs the whole suite — every workload, untraced and traced —
// at toy sizes with every oracle on, so the harness cannot rot unnoticed.
func TestSuiteAtToySizes(t *testing.T) {
	report, err := runSuite(1, 0.2, toySizes, false, toyRunner(t))
	if err != nil {
		t.Fatal(err)
	}
	if report.Claim != nil {
		t.Errorf("claim = %q, want null", *report.Claim)
	}
	issueNames := map[string]bool{}
	for _, w := range workloads() {
		wr := report.Workloads[w.name]
		if wr.Failed != 0 || wr.FailedShare != 0 || wr.Attempted < 2 {
			t.Errorf("%s: attempted %d, failed %d", w.name, wr.Attempted, wr.Failed)
		}
		for _, d := range endToEnd {
			if m := wr.EndToEnd[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: %s = %v %s, want > 0 in %s", w.name, d.Name, m.Value, m.Unit, d.Unit)
			}
		}
		for _, name := range []string{w.opName, w.baseName} {
			if name == "" {
				continue
			}
			issueNames[name] = true
			if m, ok := wr.EndToEnd[name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: the issue's %s is missing from the report", w.name, name)
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(wr.PerLayer), len(perLayer))
		}
		if cov := wr.PerLayer["trace.layer_coverage_pct"].Value; cov < 80 || cov > 100 {
			t.Errorf("%s: layer coverage %v%%, want most of the op span", w.name, cov)
		}
	}
	// With setup_s, mutations_per_s, reads_per_s, live_heap_mb and the
	// failed_share every row carries, these are the issue's eleven.
	if len(issueNames) != 6 {
		t.Errorf("issue names for op_ms and baseline_ms: %v, want six", issueNames)
	}
	churn, restart := report.Workloads["serve-churn"].EndToEnd, report.Workloads["serve-restart"].EndToEnd
	if churn["fallback_visible_ms"] != churn["baseline_ms"] {
		t.Errorf("fallback_visible_ms %v is not baseline_ms %v", churn["fallback_visible_ms"], churn["baseline_ms"])
	}
	if got, want := restart["restart_s"].Value, restart["op_ms"].Value/1e3; got != want || restart["restart_s"].Unit != "s" {
		t.Errorf("restart_s = %v, want op_ms in seconds %v", restart["restart_s"], want)
	}
}

func TestJudge(t *testing.T) {
	steady := func(centre float64) sample {
		var s sample
		for i := -5; i < 5; i++ {
			s = append(s, centre*(1+0.002*float64(i)))
		}
		return s
	}
	noisy := func(centre float64) sample {
		var s sample
		for i := -5; i < 5; i++ {
			s = append(s, centre*(1+0.1*float64(i)))
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		a, b    sample
		better  string
		verdict string
	}{
		{"same", steady(100), steady(101), "lower", "ok"},
		{"slower", steady(100), steady(120), "lower", "breach"},
		{"faster", steady(100), steady(80), "lower", "ok"},
		{"fewer per second", steady(100), steady(80), "higher", "breach"},
		{"more per second", steady(100), steady(120), "higher", "ok"},
		{"noise wider than the bound settles nothing", noisy(100), steady(100), "lower", "unresolved"},
		{"not even a breach", steady(100), noisy(200), "lower", "unresolved"},
	} {
		if got := judge(tc.a, tc.b, tc.better, 0.1); got.Verdict != tc.verdict {
			t.Errorf("%s: %+v, want %s", tc.name, got, tc.verdict)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in harness.go are what
// the program prints. They must name the same workloads and metrics.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var f struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, f.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.Name || file[i].Unit != d.Unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, file[i].Name, file[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}
