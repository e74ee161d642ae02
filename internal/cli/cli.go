// Package cli holds what the dvrun, dvserve and dvshard commands share:
// resolving the graph-source flags into a loaded graph, and the repeatable
// name=value parameter flag.
package cli

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
)

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
	Format   string // -graph-format: auto (default), el, dvg
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
		dvg, err := s.isDVGRAF()
		if err != nil {
			return nil, err
		}
		if dvg {
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

// isDVGRAF decides whether the -edges file holds a binary DVGRAF graph,
// honouring an explicit -graph-format and sniffing the magic for auto.
func (s GraphSource) isDVGRAF() (bool, error) {
	switch s.Format {
	case "", "auto":
		return graph.IsGraphFile(s.Edges), nil
	case "el":
		return false, nil
	case "dvg":
		return true, nil
	}
	return false, fmt.Errorf("unknown -graph-format %q (want auto, el or dvg)", s.Format)
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
// ba:n:k, er:n:m, grid:rows:cols, ws:n:k:beta.
func generate(spec string, directed bool, seed int64) (*graph.Graph, error) {
	parts := strings.Split(spec, ":")
	atoi := func(i int) int {
		if i >= len(parts) {
			return 0
		}
		v, _ := strconv.Atoi(parts[i])
		return v
	}
	switch parts[0] {
	case "rmat":
		return graph.RMAT(atoi(1), atoi(2), 0.57, 0.19, 0.19, directed, seed), nil
	case "ba":
		return graph.PreferentialAttachment(atoi(1), atoi(2), seed), nil
	case "er":
		return graph.ErdosRenyi(atoi(1), atoi(2), directed, seed), nil
	case "grid":
		return graph.Grid(atoi(1), atoi(2), 10, seed), nil
	case "ws":
		beta := 0.1
		if len(parts) > 3 {
			if b, err := strconv.ParseFloat(parts[3], 64); err == nil {
				beta = b
			}
		}
		return graph.WattsStrogatz(atoi(1), atoi(2), beta, seed), nil
	}
	return nil, fmt.Errorf("unknown generator %q", parts[0])
}
