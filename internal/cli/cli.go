// Package cli is the front end every command shares: the flags that name
// a compiled program (its source, mode and ε) and, for the commands that
// run one, its parameters, the graph it runs on and the worker count; and
// their resolution into program source, a compiled program and a loaded
// graph.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/programs"
)

// Program holds the values of the flags that name a compiled program.
type Program struct {
	Mode     string  // -mode: dv, dvstar, memotable
	ProgName string  // -program: embedded program name
	File     string  // -file: ΔV source file
	Epsilon  float64 // -epsilon: allowable slop ε (§9)
}

// RegisterProgram binds the program flags onto fs.
func RegisterProgram(fs *flag.FlagSet) *Program {
	p := new(Program)
	p.register(fs)
	return p
}

func (p *Program) register(fs *flag.FlagSet) {
	fs.StringVar(&p.Mode, "mode", "dv", "compile mode: dv, dvstar, memotable")
	fs.StringVar(&p.ProgName, "program", "", "embedded program name")
	fs.StringVar(&p.File, "file", "", "ΔV source file")
	fs.Float64Var(&p.Epsilon, "epsilon", 0, "allowable-slop ε (§9)")
}

// Source reads the program source -program or -file names.
func (p *Program) Source() (string, error) {
	switch {
	case p.ProgName != "":
		return programs.Source(p.ProgName)
	case p.File != "":
		b, err := os.ReadFile(p.File)
		return string(b), err
	}
	return "", fmt.Errorf("need -program or -file")
}

// Options returns the compile options -mode and -epsilon select.
func (p *Program) Options() (core.Options, error) {
	mode, err := parseMode(p.Mode)
	return core.Options{Mode: mode, Epsilon: p.Epsilon}, err
}

// Compile reads the program -program or -file names and compiles it with
// Options. It returns the source text too.
func (p *Program) Compile() (*core.Program, string, error) {
	opts, err := p.Options()
	if err != nil {
		return nil, "", err
	}
	src, err := p.Source()
	if err != nil {
		return nil, "", err
	}
	prog, err := core.Compile(src, opts)
	return prog, src, err
}

// Flags holds the values of the flags of a command that runs a program
// on a graph.
type Flags struct {
	Program
	Params  ParamFlags
	Graph   GraphSource
	Workers int
}

// Register binds the program flags, -param, the graph flags and -workers
// onto fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{Params: ParamFlags{}}
	f.Program.register(fs)
	fs.Var(f.Params, "param", "program parameter override, name=value (repeatable)")
	fs.StringVar(&f.Graph.Dataset, "dataset", "", "stand-in dataset name")
	fs.StringVar(&f.Graph.Edges, "edges", "", "edge-list file")
	fs.BoolVar(&f.Graph.Directed, "directed", true, "treat -edges input as directed")
	fs.StringVar(&f.Graph.Gen, "gen", "", "generator spec (rmat:scale:ef, ba:n:k, er:n:m, grid:r:c, ws:n:k:beta)")
	fs.Int64Var(&f.Graph.Seed, "seed", 1, "generator seed")
	fs.StringVar(&f.Graph.Repr, "repr", "flat", "in-memory graph representation: flat, compact, mmap (mmap needs a DVGRAF -edges file)")
	fs.IntVar(&f.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	return f
}

// parseMode maps a -mode value to its compile mode.
func parseMode(s string) (core.Mode, error) {
	switch s {
	case "dv":
		return core.Incremental, nil
	case "dvstar":
		return core.Baseline, nil
	case "memotable":
		return core.MemoTable, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want dv, dvstar, memotable)", s)
}

// ParamFlags is a repeatable -param name=value flag.
type ParamFlags map[string]float64

func (p ParamFlags) String() string { return fmt.Sprint(map[string]float64(p)) }

// Set implements flag.Value.
func (p ParamFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return err
	}
	p[k] = f
	return nil
}

// GraphSource is the values of a command's graph flags. A command fills
// the fields it has flags for and leaves the rest zero.
type GraphSource struct {
	Dataset  string // -dataset: stand-in dataset name
	Edges    string // -edges: text edge list or DVGRAF file
	Gen      string // -gen: generator spec
	Directed bool   // -directed: applies to -edges text input and -gen
	Seed     int64  // -seed: generator seed
	Repr     string // -repr: flat (default), compact, mmap
}

// Load builds the graph from the one source named; naming none or more
// than one is an error.
func (s GraphSource) Load() (*graph.Graph, error) {
	var sources []string
	if s.Dataset != "" {
		sources = append(sources, "-dataset")
	}
	if s.Edges != "" {
		sources = append(sources, "-edges")
	}
	if s.Gen != "" {
		sources = append(sources, "-gen")
	}
	switch len(sources) {
	case 0:
		return nil, fmt.Errorf("need one of -dataset, -edges, -gen")
	case 1:
	default:
		return nil, fmt.Errorf("conflicting graph sources: %s — pick exactly one", strings.Join(sources, " and "))
	}
	var g *graph.Graph
	switch {
	case s.Dataset != "":
		d, err := graph.DatasetByName(s.Dataset)
		if err != nil {
			return nil, err
		}
		g = d.Build()
	case s.Edges != "":
		if graph.IsGraphFile(s.Edges) {
			// The DVGRAF loader builds the requested representation
			// directly — flat never exists as an intermediate for compact
			// loads, and mmap never touches the heap.
			mode, err := s.loadMode()
			if err != nil {
				return nil, err
			}
			return graph.ReadGraphFile(s.Edges, mode)
		}
		f, err := os.Open(s.Edges)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err = graph.ReadEdgeList(f, s.Directed)
		if err != nil {
			return nil, err
		}
	default:
		var err error
		g, err = generate(s.Gen, s.Directed, s.Seed)
		if err != nil {
			return nil, err
		}
	}
	switch s.Repr {
	case "", "flat":
		return g, nil
	case "compact":
		return graph.Compact(g)
	case "mmap":
		return nil, fmt.Errorf("-repr mmap needs a DVGRAF -edges file (make one with dvrun -save-graph)")
	}
	return nil, fmt.Errorf("unknown representation %q (want flat, compact or mmap)", s.Repr)
}

func (s GraphSource) loadMode() (graph.LoadMode, error) {
	switch s.Repr {
	case "", "flat":
		return graph.LoadFlat, nil
	case "compact":
		return graph.LoadCompact, nil
	case "mmap":
		return graph.LoadMmap, nil
	}
	return 0, fmt.Errorf("unknown representation %q (want flat, compact or mmap)", s.Repr)
}

// generate builds a synthetic graph from a spec: rmat:scale:edgefactor,
// ba:n:k, er:n:m, grid:rows:cols, ws:n:k:beta. Every field must be
// given and parse: sizes are positive integers, beta a float in [0, 1].
func generate(spec string, directed bool, seed int64) (*graph.Graph, error) {
	parts := strings.Split(spec, ":")
	fields, ok := map[string]int{"rmat": 2, "ba": 2, "er": 2, "grid": 2, "ws": 3}[parts[0]]
	if !ok {
		return nil, fmt.Errorf("unknown generator %q in -gen %q", parts[0], spec)
	}
	if len(parts) != fields+1 {
		return nil, fmt.Errorf("-gen %q: %s takes %d fields, got %d", spec, parts[0], fields, len(parts)-1)
	}
	var ints [2]int
	for i := range ints {
		v, err := strconv.Atoi(parts[i+1])
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-gen %q: field %d (%q) is not a positive integer", spec, i+1, parts[i+1])
		}
		ints[i] = v
	}
	a, b := ints[0], ints[1]
	switch parts[0] {
	case "rmat":
		if a > 30 {
			return nil, fmt.Errorf("-gen %q: scale %d is past 30", spec, a)
		}
		return graph.RMAT(a, b, 0.57, 0.19, 0.19, directed, seed), nil
	case "ba":
		return graph.PreferentialAttachment(a, b, seed), nil
	case "er":
		// G(n, m) draws m distinct edges; asking for more than exist
		// would never finish.
		most := a * (a - 1) // ordered pairs
		if !directed {
			most /= 2
		}
		if b > most {
			return nil, fmt.Errorf("-gen %q: %d vertices have only %d distinct edges", spec, a, most)
		}
		return graph.ErdosRenyi(a, b, directed, seed), nil
	case "grid":
		return graph.Grid(a, b, 10, seed), nil
	}
	beta, err := strconv.ParseFloat(parts[3], 64)
	if err != nil || !(beta >= 0 && beta <= 1) {
		return nil, fmt.Errorf("-gen %q: beta %q is not a float in [0, 1]", spec, parts[3])
	}
	return graph.WattsStrogatz(a, b, beta, seed), nil
}
