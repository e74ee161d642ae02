package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
	"repro/internal/serve"
)

// parse builds dvrun's flags from CLI-style arguments through the same
// wiring main uses.
func parse(t *testing.T, args ...string) *flags {
	t.Helper()
	fs := flag.NewFlagSet("dvrun", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// runArgs runs dvrun with args and returns what it printed and its error.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), parse(t, args...), &out)
	return out.String(), err
}

// mustRun is runArgs for a run that must succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runArgs(t, args...)
	if err != nil {
		t.Fatalf("dvrun %v: %v\n%s", args, err, out)
	}
	return out
}

// with returns base followed by extra, never sharing base's array.
func with(base []string, extra ...string) []string {
	return append(slices.Clip(base), extra...)
}

// writeEdgeList writes g as a text edge list in a temporary directory.
func writeEdgeList(t *testing.T, g *graph.Graph) string {
	t.Helper()
	f := filepath.Join(t.TempDir(), "g.el")
	fh, err := os.Create(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(fh, g); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunSSSPOnGrid(t *testing.T) {
	out := mustRun(t, "-program", "sssp", "-gen", "grid:10:10", "-workers", "2",
		"-show", "dist", "-top", "3", "-trace", "-param", "src=0")
	for _, want := range []string{"graph:", "supersteps:", "top 3 by dist", "superstep  active"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunModesAndScheduler(t *testing.T) {
	for _, mode := range []string{"dv", "dvstar", "memotable"} {
		out := mustRun(t, "-mode", mode, "-program", "pagerank", "-gen", "rmat:7:4",
			"-directed=false", "-seed", "2", "-workers", "3", "-queue")
		if !strings.Contains(out, "messages:") {
			t.Fatalf("mode %s output missing stats:\n%s", mode, out)
		}
	}
}

func TestRunFromEdgeListFile(t *testing.T) {
	f := writeEdgeList(t, graph.Path(6, true))
	out := mustRun(t, "-program", "bfs", "-edges", f, "-param", "src=0", "-show", "hop", "-top", "6")
	if !strings.Contains(out, "top 6 by hop") {
		t.Fatalf("edge-list run output:\n%s", out)
	}
}

func TestRunProgramFile(t *testing.T) {
	f := filepath.Join(t.TempDir(), "p.dv")
	src := "init { local x : float = 1.0 * id };\niter k { let m : float = max [ u.x | u <- #in ] in x = max x m } until { fixpoint }\n"
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, "-file", f, "-gen", "er:50:150", "-directed=false", "-seed", "3")
	if !strings.Contains(out, "wall time:") {
		t.Fatalf("program file run output:\n%s", out)
	}
}

func TestRunErrorPaths(t *testing.T) {
	bad := [][]string{
		{}, // no program
		{"-mode", "bogus", "-program", "sssp", "-gen", "grid:3:3"}, // bad mode
		{"-program", "sssp"},                                      // no graph
		{"-program", "sssp", "-gen", "bogus:1"},                   // bad generator
		{"-program", "sssp", "-gen", "grid:3"},                    // short generator spec
		{"-program", "nope", "-gen", "grid:3:3"},                  // unknown program
		{"-program", "cc", "-gen", "rmat:4:2"},                    // #neighbors on directed
		{"-program", "sssp", "-gen", "grid:3:3", "-param", "q=1"}, // unknown param
		{"-program", "sssp", "-edges", "/nonexistent"},            // missing file
		{"-file", "/nonexistent.dv", "-gen", "grid:3:3"},
		{"-program", "sssp", "-gen", "grid:3:3", "-show", "dist", "-top", "-1"}, // negative -top
	}
	for i, args := range bad {
		if _, err := runArgs(t, args...); err == nil {
			t.Fatalf("case %d %v: run succeeded, want error", i, args)
		}
	}
	if _, err := runArgs(t, "-program", "sssp", "-gen", "grid:3:3", "-top", "-1"); err == nil || !strings.Contains(err.Error(), "-top") {
		t.Fatalf("-top -1: err = %v, want it named", err)
	}
}

// TestRunShowCheckedBeforeWork: a -show field the program lacks is
// refused right after compiling, before the graph loads or a superstep
// runs.
func TestRunShowCheckedBeforeWork(t *testing.T) {
	out, err := runArgs(t, "-program", "sssp", "-gen", "grid:3:3", "-show", "bogus")
	if !errors.Is(err, vm.ErrUnknownField) || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("err = %v, want vm.ErrUnknownField naming the field", err)
	}
	if strings.Contains(out, "graph:") {
		t.Fatalf("the refusal came after work:\n%s", out)
	}
}

// TestDocCommentListsAllFlags guards against doc drift both ways: every
// flag registered by registerFlags is mentioned as "-name" in this file's
// package doc comment, every -name in its Usage block is a registered
// flag, and every dvrun command README.md shows, its `\` continuations
// joined, parses with those flags.
func TestDocCommentListsAllFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	// The doc comment is everything before the package clause.
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("cannot locate package clause in main.go")
	}
	fs := flag.NewFlagSet("dvrun", flag.ContinueOnError)
	registerFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "-"+f.Name) {
			t.Errorf("flag -%s is registered but missing from the doc comment Usage block", f.Name)
		}
	})
	_, usage, _ := strings.Cut(doc, "// Usage:\n//\n")
	usage, _, _ = strings.Cut(usage, "\n//\n")
	names := regexp.MustCompile(`[\s\[(|]-([a-z][a-z-]*)`).FindAllStringSubmatch(usage, -1)
	if len(names) == 0 {
		t.Fatal("main.go has no Usage block naming flags")
	}
	for _, m := range names {
		if fs.Lookup(m[1]) == nil {
			t.Errorf("the Usage block names -%s, which is not a flag", m[1])
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := regexp.MustCompile(`(?m)^\$ go run \./cmd/dvrun ((?:.*\\\n)*.*)`).FindAllStringSubmatch(string(readme), -1)
	if len(cmds) == 0 {
		t.Fatal("README.md shows no dvrun command")
	}
	for _, m := range cmds {
		// Continuations joined, the shell's part (a comment, a
		// redirection, a pipe or a `&`) cut.
		args := strings.ReplaceAll(m[1], "\\\n", " ")
		args = args[:strings.IndexAny(args+"#", "#&|<>;")]
		fs := flag.NewFlagSet("dvrun", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs)
		if err := fs.Parse(strings.Fields(args)); err != nil || fs.NArg() > 0 {
			t.Errorf("README.md: dvrun %s: %v, arguments left %q", args, err, fs.Args())
		}
	}
}

// TestGenHelpMentionsWattsStrogatz pins the -gen usage string to the full
// generator set, ws:n:k:beta included.
func TestGenHelpMentionsWattsStrogatz(t *testing.T) {
	fs := flag.NewFlagSet("dvrun", flag.ContinueOnError)
	registerFlags(fs)
	f := fs.Lookup("gen")
	if f == nil {
		t.Fatal("no -gen flag registered")
	}
	for _, spec := range []string{"rmat:", "ba:", "er:", "grid:", "ws:n:k:beta"} {
		if !strings.Contains(f.Usage, spec) {
			t.Errorf("-gen help %q missing generator %q", f.Usage, spec)
		}
	}
}

func TestRegisterFlagsRoundTrip(t *testing.T) {
	f := parse(t,
		"-mode", "dvstar", "-program", "pagerank", "-gen", "rmat:5:4",
		"-timeout", "250ms", "-param", "src=3", "-queue", "-trace",
		"-checkpoint-dir", "/tmp/ck", "-checkpoint-every", "4", "-resume", "ck",
		"-shard", "1/2", "-peers", "unix:a,unix:b",
	)
	if f.Mode != "dvstar" || f.ProgName != "pagerank" || f.Graph.Gen != "rmat:5:4" {
		t.Fatalf("f = %+v", f)
	}
	if f.timeout != 250*time.Millisecond || !f.queue || !f.trace {
		t.Fatalf("f = %+v", f)
	}
	if f.ckptDir != "/tmp/ck" || f.ckptEvery != 4 || f.resume != "ck" {
		t.Fatalf("f = %+v", f)
	}
	if f.shard != "1/2" || f.peers != "unix:a,unix:b" {
		t.Fatalf("f = %+v", f)
	}
	if f.Params["src"] != 3 {
		t.Fatalf("params = %v", f.Params)
	}
}

// TestRunTimeoutPartialStats exercises the CLI abort path: a tiny -timeout
// on a large generated graph must fail with a deadline error yet still
// print the per-run statistics accumulated so far, marked aborted.
func TestRunTimeoutPartialStats(t *testing.T) {
	out, err := runArgs(t, "-program", "pagerank", "-gen", "rmat:15:16", "-directed=false",
		"-seed", "4", "-workers", "2", "-trace", "-timeout", "1ms")
	if err == nil {
		t.Fatal("run with 1ms timeout succeeded, want abort")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	for _, want := range []string{"supersteps:", "wall time:", "aborted:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("partial stats output missing %q:\n%s", want, out)
		}
	}
}

// TestRunCancelledContext checks that an already-cancelled context aborts
// promptly and surfaces context.Canceled.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, parse(t, "-program", "pagerank", "-gen", "grid:10:10"), io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
}

// TestRunPanicSurfacesRunError ensures a panic inside the engine comes
// back to the CLI as a structured *pregel.RunError rather than crashing.
func TestRunPanicSurfacesRunError(t *testing.T) {
	// FieldVector with an unknown field errors cleanly (API-boundary check
	// that panics were converted to errors).
	_, err := runArgs(t, "-program", "pagerank", "-gen", "grid:5:5", "-show", "nosuchfield")
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("err = %v, want unknown-field error", err)
	}
	var re *pregel.RunError
	if errors.As(err, &re) {
		t.Fatalf("unknown-field error should not be a RunError: %v", err)
	}
}

// TestShowTopOrder: -show lists values largest first, equal values (tied
// infinities, −0 beside +0) in vertex order, and NaNs last — sort.Slice
// with v[i] > v[j] left [1 NaN 3 2] as it was.
func TestShowTopOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		vals []float64
		want string
	}{
		{[]float64{1, nan, 3, 2}, "2:3 3:2 0:1 1:NaN"},
		{[]float64{inf, 2, nan, inf, math.Copysign(0, -1), 0, nan, inf}, "0:+Inf 3:+Inf 7:+Inf 1:2 4:-0 5:0 2:NaN 6:NaN"},
	} {
		var out bytes.Buffer
		showTop(&out, tc.vals, "f", len(tc.vals))
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			var u int
			var v string
			if _, err := fmt.Sscanf(line, "  vertex %d %s", &u, &v); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			got = append(got, fmt.Sprintf("%d:%s", u, v))
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("showTop(%v) = %s, want %s", tc.vals, g, tc.want)
		}
	}
}

// --- checkpoint / resume ---------------------------------------------------

// superstepsOf extracts the "supersteps: N" stat from dvrun output.
func superstepsOf(t *testing.T, out string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "supersteps:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatalf("bad supersteps line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no supersteps line in output:\n%s", out)
	return 0
}

// checkpointPathFrom extracts the path from the "checkpoint: path
// (superstep N)" line, or "".
func checkpointPathFrom(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "checkpoint:"); ok {
			p, _, _ := strings.Cut(strings.TrimSpace(rest), " (")
			return p
		}
	}
	return ""
}

// topBlock extracts the "top N by field:" block (the printed result values).
func topBlock(t *testing.T, out string) string {
	t.Helper()
	_, block, ok := strings.Cut(out, "top ")
	if !ok {
		t.Fatalf("no top-values block in output:\n%s", out)
	}
	return block
}

// TestRunCheckpointResumeDeterministic drives the CLI resume path without
// relying on interrupt timing: a full run keeps a checkpoint chain in
// -checkpoint-dir, then a second invocation resumes from a mid-run record
// and must reproduce the same final values in exactly the remaining
// supersteps. A DVSNAP file of the chain tip outside any chain is refused,
// naming its path.
func TestRunCheckpointResumeDeterministic(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-program", "pagerank", "-gen", "rmat:8:6", "-directed=false", "-seed", "5",
		"-workers", "2", "-show", "vl", "-top", "5"}
	fullOut := mustRun(t, with(base, "-checkpoint-dir", dir, "-checkpoint-every", "1")...)
	S := superstepsOf(t, fullOut)
	if S < 3 {
		t.Fatalf("full run too short to resume from the middle: %d supersteps", S)
	}
	st, err := pregel.LoadChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(t.TempDir(), "snap.dvsnap")
	if err := os.WriteFile(bare, st.Snapshot.AppendTo(nil), 0o644); err != nil {
		t.Fatal(err)
	}

	k := S / 2 // resume from the snapshot taken after superstep k
	resume := recordOf(t, dir, k)
	out := mustRun(t, with(base, "-resume", resume)...)
	if got, want := superstepsOf(t, out), S-(k+1); got != want {
		t.Errorf("-resume %s took %d supersteps, want %d", resume, got, want)
	}
	if got, want := topBlock(t, out), topBlock(t, fullOut); got != want {
		t.Errorf("-resume %s: values differ from the uninterrupted run:\ngot:\n%swant:\n%s", resume, got, want)
	}
	if out, err := runArgs(t, with(base, "-resume", bare)...); err == nil || !strings.Contains(err.Error(), bare) || strings.Contains(out, "supersteps:") {
		t.Errorf("-resume %s: err = %v, want a refusal naming the file before any superstep:\n%s", bare, err, out)
	}
}

// TestRunCheckpointIncrementalResume drives the chain path of the CLI: a
// full run leaves a chain directory (base snapshot plus delta records) and
// prints the path of its last record; resuming from the directory itself or
// from that printed record replays the chain to its terminal tip and
// reproduces the same values with zero supersteps left to execute. The
// manifest and a record file the manifest does not commit are refused.
func TestRunCheckpointIncrementalResume(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-program", "pagerank", "-gen", "rmat:8:6", "-directed=false", "-seed", "5",
		"-workers", "2", "-show", "vl", "-top", "5"}
	fullOut := mustRun(t, with(base, "-checkpoint-dir", dir, "-checkpoint-every", "1")...)
	printed := checkpointPathFrom(fullOut)
	if filepath.Dir(printed) != dir || !strings.Contains(fullOut, "(superstep ") {
		t.Fatalf("checkpoint line %q does not name a record of the chain in %q with its superstep", printed, dir)
	}
	if !pregel.IsChainDir(dir) {
		t.Fatalf("%s holds no chain manifest after a checkpointed run", dir)
	}
	wantTop := topBlock(t, fullOut)

	// The chain tip is the terminal barrier snapshot, so nothing is left to
	// recompute: the replayed state alone must carry the final values.
	for _, resume := range []string{dir, printed} {
		out := mustRun(t, with(base, "-resume", resume)...)
		if !strings.Contains(out, "resume: chain "+resume) {
			t.Fatalf("-resume %s: chain resume line missing:\n%s", resume, out)
		}
		if got := superstepsOf(t, out); got != 0 {
			t.Errorf("-resume %s from the chain tip took %d supersteps, want 0", resume, got)
		}
		if got := topBlock(t, out); got != wantTop {
			t.Errorf("-resume %s: values differ from the uninterrupted run:\ngot:\n%swant:\n%s", resume, got, wantTop)
		}
	}

	// The raw manifest, or a record file past the committed ones, must be
	// refused, not silently loaded.
	st, err := pregel.LoadChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	uncommitted := filepath.Join(dir, fmt.Sprintf("chain-%06d.delta", len(st.Entries)))
	if err := os.WriteFile(uncommitted, st.Snapshot.AppendTo(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, resume := range []string{filepath.Join(dir, pregel.ChainManifestName), uncommitted} {
		if _, err := runArgs(t, with(base, "-resume", resume)...); err == nil || !strings.Contains(err.Error(), resume) {
			t.Fatalf("-resume %s: err = %v, want a refusal naming the path", resume, err)
		}
	}
}

// recordOf returns the path of the chain record in dir that holds
// superstep k: a run checkpointing every barrier into a fresh directory
// commits record k at superstep k.
func recordOf(t *testing.T, dir string, k int) string {
	t.Helper()
	st, err := pregel.LoadChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e := st.Entries[k]; e.Superstep != k {
		t.Fatalf("record %d of %s is superstep %d", k, dir, e.Superstep)
	}
	return filepath.Join(dir, st.Entries[k].Name)
}

// TestRunInterruptResume is the end-to-end crash story: a long run is
// cancelled mid-flight (as SIGINT would via signal.NotifyContext), the CLI
// fails but prints the abort snapshot's path, and resuming from that path
// completes the computation with values identical to an uninterrupted run.
func TestRunInterruptResume(t *testing.T) {
	base := []string{"-program", "pagerank", "-gen", "rmat:13:8", "-directed=false", "-seed", "6",
		"-workers", "2", "-show", "vl", "-top", "5"}
	began := time.Now()
	fullOut := mustRun(t, base...)
	full := time.Since(began)
	S := superstepsOf(t, fullOut)
	wantTop := topBlock(t, fullOut)

	// Interrupt timing is inherently racy: too early and no barrier has
	// completed (nothing to snapshot), too late and the run finishes. The
	// -timeout clock also covers building the graph, so the useful window
	// is the tail of the run. Search for it: grow the timeout while runs
	// abort without a checkpoint, and bisect once a run has finished.
	var snapPath string
	var early, late time.Duration // largest too-early, smallest too-late
	timeout := full / 2
	for attempt := 0; attempt < 40 && snapPath == ""; attempt++ {
		out, err := runArgs(t, with(base, "-checkpoint-dir", t.TempDir(), "-timeout", timeout.String())...)
		switch {
		case err == nil:
			late = timeout
		case !errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
		case checkpointPathFrom(out) != "":
			if !strings.Contains(out, "aborted:") {
				t.Fatalf("interrupted output has a checkpoint but no aborted line:\n%s", out)
			}
			snapPath = checkpointPathFrom(out)
		default:
			early = timeout
		}
		switch {
		case late == 0:
			timeout += timeout / 4
		case late-early > 2*time.Millisecond:
			timeout = early + (late-early)/2
		default:
			// The window collapsed; timings drifted, so reopen it.
			early, late = early/2, 0
			timeout = early + early/4
		}
		timeout = max(timeout, time.Millisecond) // 0 would mean no limit
	}
	if snapPath == "" {
		t.Fatal("no interrupted run produced a checkpoint")
	}

	st, err := pregel.LoadChain(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	k := st.Snapshot.Superstep
	out := mustRun(t, with(base, "-resume", snapPath)...)
	if got, want := superstepsOf(t, out), S-(k+1); got != want {
		t.Errorf("resumed run took %d supersteps, want %d (snapshot at superstep %d of %d)", got, want, k, S)
	}
	if got := topBlock(t, out); got != wantTop {
		t.Errorf("resumed values differ from uninterrupted run:\ngot:\n%swant:\n%s", got, wantTop)
	}
}

// --- streaming mutations / warm start ---------------------------------------

// TestRunWarmStartDeltaRecompute is the CLI end of the streaming-mutation
// story: converge once with a terminal checkpoint, apply a mutation log,
// and check that -resume with -mutations reproduces the from-scratch values
// on the mutated graph in strictly fewer supersteps, from the chain
// directory and from the record the seed run printed. A mid-run record and
// a DVSNAP file outside a chain are refused before any superstep.
func TestRunWarmStartDeltaRecompute(t *testing.T) {
	// A directed path is the worst case for a from-scratch SSSP wave and
	// keeps the repair wave local to the shortcut's downstream suffix.
	el := writeEdgeList(t, graph.Path(120, true))
	dir := t.TempDir()
	base := []string{"-program", "sssp", "-edges", el, "-workers", "2",
		"-show", "dist", "-top", "5", "-param", "src=0"}

	// Seed run on the pre-mutation graph, keeping every barrier.
	seedOut := mustRun(t, with(base, "-checkpoint-dir", dir, "-checkpoint-every", "1")...)
	snapPath := checkpointPathFrom(seedOut)
	if snapPath == "" {
		t.Fatalf("seed run printed no checkpoint line:\n%s", seedOut)
	}

	// A small streaming delta: one shortcut, one redundant back-link.
	mut := filepath.Join(t.TempDir(), "edits.dvdelta")
	if err := os.WriteFile(mut, []byte("# streaming edits\nadd 0 90\nadd 50 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	scratchOut := mustRun(t, with(base, "-mutations", mut)...)
	if !strings.Contains(scratchOut, "arc changes") || !strings.Contains(scratchOut, "from scratch") {
		t.Fatalf("scratch mutated run missing mutations line:\n%s", scratchOut)
	}

	// The chain directory and the printed record warm-start alike.
	for _, from := range []string{dir, snapPath} {
		warmOut := mustRun(t, with(base, "-mutations", mut, "-resume", from)...)
		if !strings.Contains(warmOut, "delta-recompute from "+from) {
			t.Fatalf("warm run missing delta-recompute marker:\n%s", warmOut)
		}
		if got, want := topBlock(t, warmOut), topBlock(t, scratchOut); got != want {
			t.Errorf("-resume %s: values differ from scratch run on the mutated graph:\ngot:\n%swant:\n%s", from, got, want)
		}
		if ws, ss := superstepsOf(t, warmOut), superstepsOf(t, scratchOut); ws >= ss {
			t.Errorf("-resume %s took %d supersteps, scratch %d — expected strictly fewer", from, ws, ss)
		}
	}

	// A mid-run record is no converged state to repair, and a DVSNAP file
	// outside a chain is no checkpoint.
	st, err := pregel.LoadChain(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(t.TempDir(), "snap.dvsnap")
	if err := os.WriteFile(bare, st.Snapshot.AppendTo(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	for from, want := range map[string]string{recordOf(t, dir, 1): "terminal", bare: bare} {
		out, err := runArgs(t, with(base, "-mutations", mut, "-resume", from)...)
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(out, "supersteps:") {
			t.Errorf("-resume %s -mutations: err = %v, want a refusal naming %q before any superstep:\n%s", from, err, want, out)
		}
	}
}

// TestRunResumeRefusesV1Files: -resume of a chain written at format
// version 1 fails for its version, never as a mismatched graph; a version-1
// snapshot file outside a chain is refused as no checkpoint, naming it.
func TestRunResumeRefusesV1Files(t *testing.T) {
	v1 := filepath.Join("..", "..", "internal", "pregel", "testdata", "v1")
	args := []string{"-program", "sssp", "-gen", "grid:3:3", "-workers", "1"}
	resume := filepath.Join(v1, "chain")
	_, err := runArgs(t, with(args, "-resume", resume)...)
	if !errors.Is(err, pregel.ErrSnapshotVersion) || errors.Is(err, pregel.ErrSnapshotMismatch) {
		t.Errorf("-resume %s: err = %v, want ErrSnapshotVersion (and not ErrSnapshotMismatch)", resume, err)
	}
	resume = filepath.Join(v1, "snap.dvsnap")
	if _, err = runArgs(t, with(args, "-resume", resume)...); err == nil || !strings.Contains(err.Error(), resume) || errors.Is(err, pregel.ErrSnapshotMismatch) {
		t.Errorf("-resume %s: err = %v, want a refusal naming the file", resume, err)
	}
}

// TestRunResumeServedChain: -resume of a chain written by dvserve replays
// its mutation logs over the loaded graph with the fingerprint check the
// daemon's own restart applies — the right boot graph lands on the served
// values with zero supersteps, the wrong one fails naming the first
// mutation log it diverges at instead of seeding state onto a graph the
// chain does not describe.
func TestRunResumeServedChain(t *testing.T) {
	dir := t.TempDir()
	boot := cli.GraphSource{Gen: "grid:8:8", Seed: 3}
	g, err := boot.Load()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(programs.MustSource("sssp"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(context.Background(), serve.Config{
		Prog: prog, Graph: g, Params: map[string]float64{"src": 0}, Workers: 2, Combine: true, ChainDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Enqueue([]graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 63, W: 1}}); err != nil {
		t.Fatal(err)
	}
	v, err := srv.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dist, _ := v.Field("dist")
	want := dist[63]
	srv.Close()

	base := []string{"-program", "sssp", "-gen", boot.Gen, "-workers", "2",
		"-show", "dist", "-top", "64", "-resume", dir, "-param", "src=0"}
	out := mustRun(t, with(base, "-seed", strconv.FormatInt(boot.Seed, 10))...)
	if !strings.Contains(out, "1 mutation logs") || superstepsOf(t, out) != 0 {
		t.Fatalf("chain resume did not replay one log with zero supersteps:\n%s", out)
	}
	if line := fmt.Sprintf("vertex %-8d %g\n", 63, want); !strings.Contains(out, line) {
		t.Fatalf("resumed values miss the served dist[63] = %g:\n%s", want, out)
	}

	// With -mutations the served chain is the converged state a warm start
	// repairs: it lands on the values of a scratch run over the boot graph
	// with the served log and the new one applied, in fewer supersteps.
	mut, both := filepath.Join(t.TempDir(), "more.dvdelta"), filepath.Join(t.TempDir(), "both.dvdelta")
	if err := os.WriteFile(mut, []byte("add 0 7 35\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(both, []byte("add 0 63 1\nadd 0 7 35\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	seed := strconv.FormatInt(boot.Seed, 10)
	warmOut := mustRun(t, with(base, "-seed", seed, "-mutations", mut)...)
	scratchOut := mustRun(t, "-program", "sssp", "-gen", boot.Gen, "-seed", seed, "-workers", "2",
		"-show", "dist", "-top", "64", "-param", "src=0", "-mutations", both)
	if !strings.Contains(warmOut, "delta-recompute from "+dir) {
		t.Fatalf("warm start from the served chain missing its marker:\n%s", warmOut)
	}
	if got, want := topBlock(t, warmOut), topBlock(t, scratchOut); got != want {
		t.Errorf("warm start from the served chain differs from scratch:\ngot:\n%swant:\n%s", got, want)
	}
	if ws, ss := superstepsOf(t, warmOut), superstepsOf(t, scratchOut); ws >= ss {
		t.Errorf("warm start from the served chain took %d supersteps, scratch %d — expected strictly fewer", ws, ss)
	}

	// Same shape, different weights.
	_, err = runArgs(t, with(base, "-seed", strconv.FormatInt(boot.Seed+1, 10))...)
	if err == nil || !errors.Is(err, pregel.ErrSnapshotMismatch) || !strings.Contains(err.Error(), "mutation log 0") {
		t.Fatalf("wrong boot graph: err = %v, want ErrSnapshotMismatch naming mutation log 0", err)
	}
}

// TestRunWarmStartVertexGrowth: a mutation log that grows the vertex set is
// warm-startable when the program's repairability matrix admits vertex-add
// (sssp does: init{} is local, so the newcomers are initialized and primed
// by the repair superstep). The warm values must match a from-scratch run
// on the grown graph.
func TestRunWarmStartVertexGrowth(t *testing.T) {
	el := writeEdgeList(t, graph.Path(120, true))
	dir := t.TempDir()
	base := []string{"-program", "sssp", "-edges", el, "-workers", "2",
		"-show", "dist", "-top", "5", "-param", "src=0"}
	seedOut := mustRun(t, with(base, "-checkpoint-dir", dir)...)
	snapPath := checkpointPathFrom(seedOut)
	if snapPath == "" {
		t.Fatalf("seed run printed no checkpoint line:\n%s", seedOut)
	}

	// Two new vertices spliced onto the path's tail plus a shortcut.
	mut := filepath.Join(t.TempDir(), "grow.dvdelta")
	log := "addv 2\nadd 119 120\nadd 120 121\nadd 0 121 5\n"
	if err := os.WriteFile(mut, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}

	scratchOut := mustRun(t, with(base, "-mutations", mut)...)
	if !strings.Contains(scratchOut, "2 new vertices") {
		t.Fatalf("scratch run missing the new-vertex count:\n%s", scratchOut)
	}

	warmOut := mustRun(t, with(base, "-mutations", mut, "-resume", snapPath)...)
	if !strings.Contains(warmOut, "delta-recompute from "+snapPath) {
		t.Fatalf("warm run missing delta-recompute marker:\n%s", warmOut)
	}
	if got, want := topBlock(t, warmOut), topBlock(t, scratchOut); got != want {
		t.Errorf("grown warm-start values differ from scratch:\ngot:\n%swant:\n%s", got, want)
	}
	if ws, ss := superstepsOf(t, warmOut), superstepsOf(t, scratchOut); ws >= ss {
		t.Errorf("warm start took %d supersteps, scratch %d — expected strictly fewer", ws, ss)
	}
}

// TestRunWarmStartGrowthRejectedByVerdict: the same growth log must be
// refused before any superstep when the program bakes graphSize into every
// vertex's init{} — the static vertex-add verdict, not a size heuristic,
// is what gates the warm restart.
func TestRunWarmStartGrowthRejectedByVerdict(t *testing.T) {
	src := "init { local share : float = 1.0 / graphSize };\n" +
		"iter k { share = max [ u.share | u <- #in ] } until { fixpoint }\n"
	f := filepath.Join(t.TempDir(), "gsize.dv")
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{"-file", f, "-gen", "grid:8:8"}
	seedOut := mustRun(t, with(base, "-checkpoint-dir", t.TempDir())...)
	snapPath := checkpointPathFrom(seedOut)
	if snapPath == "" {
		t.Fatalf("seed run printed no checkpoint line:\n%s", seedOut)
	}

	mut := filepath.Join(t.TempDir(), "grow.dvdelta")
	if err := os.WriteFile(mut, []byte("addv 1\nadd 0 64\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runArgs(t, with(base, "-mutations", mut, "-resume", snapPath)...)
	if !errors.Is(err, pregel.ErrSnapshotMismatch) || !strings.Contains(err.Error(), "adds 1 vertices") || strings.Contains(out, "supersteps:") {
		t.Fatalf("err = %v, want the vertex-add verdict rejection before any superstep:\n%s", err, out)
	}
}

// TestRunMutationErrorPaths covers a missing input and the planner's
// rejection surfacing through the CLI.
func TestRunMutationErrorPaths(t *testing.T) {
	base := []string{"-program", "sssp", "-gen", "grid:5:5", "-param", "src=0"}
	// Missing mutation log.
	if _, err := runArgs(t, with(base, "-mutations", "/nonexistent.dvdelta")...); err == nil {
		t.Fatal("missing mutation log succeeded")
	}
	// Missing warm-start checkpoint.
	mut := filepath.Join(t.TempDir(), "edits.dvdelta")
	if err := os.WriteFile(mut, []byte("add 0 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs(t, with(base, "-mutations", mut, "-resume", "/nonexistent")...); err == nil {
		t.Fatal("missing warm-start checkpoint succeeded")
	}
	// Removing an edge loosens a min input that sssp's self-clamping
	// body (`dist = min dist d`) could never unwind: the planner must
	// reject it with the rerun-from-scratch diagnostic.
	seedOut := mustRun(t, with(base, "-checkpoint-dir", t.TempDir())...)
	snapPath := checkpointPathFrom(seedOut)
	del := filepath.Join(t.TempDir(), "del.dvdelta")
	if err := os.WriteFile(del, []byte("del 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := runArgs(t, with(base, "-mutations", del, "-resume", snapPath)...)
	if err == nil || !strings.Contains(err.Error(), "pin the stale fixpoint") {
		t.Fatalf("err = %v, want min-loosening rejection", err)
	}
}

// TestRunCheckpointErrorPaths covers flag validation and resume rejection.
func TestRunCheckpointErrorPaths(t *testing.T) {
	base := []string{"-program", "pagerank", "-gen", "grid:3:3"}
	// -checkpoint-every without -checkpoint-dir is a flag error.
	if _, err := runArgs(t, with(base, "-checkpoint-every", "2")...); err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("err = %v, want -checkpoint-dir requirement", err)
	}
	// A negative interval is refused, not read as "final snapshot only".
	if _, err := runArgs(t, with(base, "-checkpoint-dir", t.TempDir(), "-checkpoint-every", "-1")...); err == nil || !strings.Contains(err.Error(), "-checkpoint-every -1") {
		t.Fatalf("err = %v, want a -checkpoint-every range error", err)
	}
	// -resume with a missing checkpoint.
	if _, err := runArgs(t, with(base, "-resume", "/nonexistent")...); err == nil {
		t.Fatal("resume from a missing checkpoint succeeded")
	}
	// -resume against a different graph: fingerprint mismatch.
	dir := t.TempDir()
	mustRun(t, "-program", "pagerank", "-gen", "grid:5:5", "-checkpoint-dir", dir, "-checkpoint-every", "1")
	_, err := runArgs(t, "-program", "pagerank", "-gen", "grid:6:6", "-resume", recordOf(t, dir, 0))
	if !errors.Is(err, pregel.ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
}
