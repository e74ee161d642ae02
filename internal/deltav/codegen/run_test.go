package codegen

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/programs"
)

// TestGeneratedCodeMatchesVM runs the generated Go and holds it to the VM
// bit for bit: every corpus program in modes ΔV and ΔV★ (the memo-table
// mode's table ops are elided in generated code) is generated into its own
// package next to a small driver that plays the engine and the VM's master
// — one worker, messages delivered in send order, prime and body
// supersteps, the phase-start wake of phases that are not quiet, the
// fixpoint aggregator, until{} with quiescence fast-forwarding — and every
// field of every vertex, the superstep count
// and the message count must equal a vm.Run with Workers 1.
func TestGeneratedCodeMatchesVM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated code")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	dir := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module dvgen\n\ngo 1.22\n")
	graphs := map[bool]*graph.Graph{false: driverGraph(false), true: driverGraph(true)}
	write("graph/graph.go", "package graph\n\n"+graphLiteral("Directed", graphs[false])+graphLiteral("Undirected", graphs[true]))

	type want struct {
		Steps, Sent int64
		Fields      [][]uint64
	}
	wants := map[string]want{}
	var imports, calls strings.Builder
	for _, name := range programs.Names() {
		for _, mode := range []core.Mode{core.Incremental, core.Baseline} {
			prog, err := core.Compile(programs.MustSource(name), core.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			pkg := strings.ReplaceAll(strings.ReplaceAll(name+"_"+mode.String(), "*", "star"), "-", "_")
			src, err := Generate(prog, pkg)
			if err != nil {
				t.Fatal(err)
			}
			write(pkg+"/gen.go", src)
			write(pkg+"/driver.go", driverSource(pkg, prog))
			undirected := prog.UsesNeighbors
			res, err := vm.Run(prog, graphs[undirected], vm.RunOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s: vm: %v", pkg, err)
			}
			w := want{Steps: int64(res.Stats.Supersteps), Sent: res.Stats.MessagesSent}
			for _, f := range prog.Layout.Fields {
				vec, err := res.FieldVector(f.Name)
				if err != nil {
					t.Fatal(err)
				}
				bits := make([]uint64, len(vec))
				for i, v := range vec {
					bits[i] = math.Float64bits(v)
				}
				w.Fields = append(w.Fields, bits)
			}
			wants[pkg] = w
			g := "Directed"
			if undirected {
				g = "Undirected"
			}
			fmt.Fprintf(&imports, "\t%q\n", "dvgen/"+pkg)
			fmt.Fprintf(&calls, "\tout[%q] = result(%s.Run(graph.%s))\n", pkg, pkg, g)
		}
	}
	write("main.go", fmt.Sprintf(`package main

import (
	"encoding/json"
	"math"
	"os"

	"dvgen/graph"
%s)

type res struct {
	Steps, Sent int64
	Fields      [][]uint64
}

func result(fields [][]float64, steps, sent int64) res {
	r := res{Steps: steps, Sent: sent}
	for _, f := range fields {
		bits := make([]uint64, len(f))
		for i, v := range f {
			bits[i] = math.Float64bits(v)
		}
		r.Fields = append(r.Fields, bits)
	}
	return r
}

func main() {
	out := map[string]res{}
%s	json.NewEncoder(os.Stdout).Encode(out)
}
`, imports.String(), calls.String()))
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
	outb, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok {
			msg += "\n" + string(ee.Stderr)
		}
		t.Fatalf("generated code failed to run: %s", msg)
	}
	var got map[string]want
	if err := json.Unmarshal(outb, &got); err != nil {
		t.Fatalf("driver output: %v\n%s", err, outb)
	}
	for pkg, w := range wants {
		g := got[pkg]
		if g.Steps != w.Steps || g.Sent != w.Sent {
			t.Errorf("%s: generated code ran %d supersteps and sent %d messages, the VM %d and %d", pkg, g.Steps, g.Sent, w.Steps, w.Sent)
		}
		for f := range w.Fields {
			for u := range w.Fields[f] {
				if f >= len(g.Fields) || u >= len(g.Fields[f]) || g.Fields[f][u] != w.Fields[f][u] {
					t.Errorf("%s: field %d of vertex %d differs from the VM's", pkg, f, u)
					break
				}
			}
		}
	}
}

// driverGraph is a seeded random weighted multigraph of 30 vertices, with
// its reverse adjacency when directed.
func driverGraph(undirected bool) *graph.Graph {
	rng := rand.New(rand.NewSource(5))
	const n = 30
	b := graph.NewBuilder(n, !undirected)
	for i := 0; i < 3*n; i++ {
		b.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 0.5+2*rng.Float64())
	}
	g := b.Finalize()
	if !undirected {
		g.BuildReverse()
	}
	return g
}

// graphLiteral renders g's out- and in-adjacency, in the graph's arc order,
// as a Go variable of the driver's graph type.
func graphLiteral(name string, g *graph.Graph) string {
	var b strings.Builder
	if name == "Directed" {
		b.WriteString("type Arc struct {\n\tTo uint32\n\tW  float64\n}\n\ntype G struct{ Out, In [][]Arc }\n\n")
	}
	fmt.Fprintf(&b, "var %s = G{\n", name)
	for _, in := range []bool{false, true} {
		b.WriteString("\t[][]Arc{\n")
		for u := 0; u < g.NumVertices(); u++ {
			it := g.OutArcs(graph.VertexID(u))
			if in && g.Directed() {
				it = g.InArcs(graph.VertexID(u))
			}
			b.WriteString("\t\t{")
			for it.Next() {
				fmt.Fprintf(&b, "{%d, %v}, ", it.To(), it.Weight())
			}
			b.WriteString("},\n")
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}\n\n")
	return b.String()
}

// driverSource is the engine and master for one generated package.
func driverSource(pkg string, prog *core.Program) string {
	var phases, fields strings.Builder
	for i, ph := range prog.Phases {
		prime, until := "nil", "nil"
		if i > 0 && len(ph.Groups) > 0 {
			prime = fmt.Sprintf("PrimePhase%d", i)
		}
		if prog.Lowered.Phases[i].Until != core.NoRef {
			until = fmt.Sprintf("UntilPhase%d", i)
		}
		fmt.Fprintf(&phases, "\t{ComputePhase%d, %s, %s, %v, %v, %v},\n", i, prime, until, ph.Kind == core.PhaseStep, ph.Halts, ph.Quiet)
	}
	for _, f := range prog.Layout.Fields {
		fmt.Fprintf(&fields, "v.%s, ", goName(f.Name))
	}
	return fmt.Sprintf(driverTemplate, pkg, prog.Opts.MaxIterations, phases.String(), fields.String())
}

const driverTemplate = `package %s

import "dvgen/graph"

type vertex struct {
	id      uint32
	n       int
	out, in []Edge
	next    [][]Message
	sent    *int64
	halted  bool
}

func (c *vertex) ID() uint32        { return c.id }
func (c *vertex) NumVertices() int  { return c.n }
func (c *vertex) OutEdges() []Edge  { return c.out }
func (c *vertex) InEdges() []Edge   { return c.in }
func (c *vertex) OutDegree() int    { return len(c.out) }
func (c *vertex) InDegree() int     { return len(c.in) }
func (c *vertex) VoteToHalt()       { c.halted = true }
func (c *vertex) Send(to uint32, m Message) {
	c.next[to] = append(c.next[to], m)
	*c.sent++
}

type phase struct {
	compute     func(Context, *VertexState, []Message, int) bool
	prime       func(Context, *VertexState)
	until       func(int, bool, int) bool
	step, halts bool
	quiet       bool // the first body superstep runs only woken vertices
}

const maxIterations = %d

var phases = []phase{
%s}

func Run(g graph.G) (fields [][]float64, steps, sent int64) {
	n := len(g.Out)
	out, in := make([][]Edge, n), make([][]Edge, n)
	for u := 0; u < n; u++ {
		for _, a := range g.Out[u] {
			out[u] = append(out[u], Edge{a.To, a.W})
		}
		for _, a := range g.In[u] {
			in[u] = append(in[u], Edge{a.To, a.W})
		}
	}
	vs := make([]VertexState, n)
	active := make([]bool, n)
	inbox, next := make([][]Message, n), make([][]Message, n)
	activateAll := func() {
		for u := range active {
			active[u] = true
		}
	}
	// superstep runs every runnable vertex; it reports whether none changed
	// a field and how many messages went out.
	superstep := func(run func(c *vertex, v *VertexState, msgs []Message) bool) (unchanged bool, sentNow int64) {
		unchanged, before := true, sent
		for u := 0; u < n; u++ {
			if !active[u] && len(inbox[u]) == 0 {
				continue
			}
			c := &vertex{id: uint32(u), n: n, out: out[u], in: in[u], next: next, sent: &sent}
			if run(c, &vs[u], inbox[u]) {
				unchanged = false
			}
			active[u] = !c.halted
		}
		for u := range inbox {
			inbox[u], next[u] = next[u], inbox[u][:0]
		}
		steps++
		return unchanged, sent - before
	}
	defer func() {
		for u := range vs {
			v := &vs[u]
			row := []float64{%s}
			for f, x := range row {
				if u == 0 {
					fields = append(fields, make([]float64, n))
				}
				fields[f][u] = x
			}
		}
	}()
	isQuiescent := func(sentNow int64) bool {
		q := sentNow == 0
		for _, a := range active {
			q = q && !a
		}
		return q
	}
	activateAll()
	_, primeSent := superstep(func(c *vertex, v *VertexState, _ []Message) bool { Init(c, v); return false })
	if len(phases) == 0 {
		return
	}
	ph, iter, primed := 0, 1, true
	for {
		p := phases[ph]
		unchanged, quiescent := true, true
		if !primed || !p.quiet || !isQuiescent(primeSent) {
			// A quiet phase whose prime woke nobody skips its first body
			// superstep: it would be a no-op on every vertex.
			if primed && !p.quiet {
				activateAll()
			}
			var sentNow int64
			unchanged, sentNow = superstep(func(c *vertex, v *VertexState, msgs []Message) bool {
				return p.compute(c, v, msgs, iter)
			})
			quiescent = isQuiescent(sentNow)
		}
		primed = false
		advance := p.step || p.until == nil || p.until(iter, unchanged, n)
		switch {
		case advance:
		case iter >= maxIterations:
			panic("iteration limit")
		case quiescent:
			for k := iter + 1; !advance; k++ {
				if k > maxIterations {
					panic("until can never hold")
				}
				advance = p.until(k, true, n)
			}
		default:
			iter++
			if !p.halts {
				activateAll()
			}
			continue
		}
		if ph++; ph == len(phases) {
			return
		}
		activateAll()
		if prime := phases[ph].prime; prime != nil {
			_, primeSent = superstep(func(c *vertex, v *VertexState, _ []Message) bool { prime(c, v); return false })
			primed = true
		}
		iter = 1
	}
}
`
