package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are recorded
// from outside the program: the benchmark wraps its own calls to each layer's
// public functions. Name is "layer.Function"; the layer is the part before
// the dot. Spans of one op share Op; Parent is the index of the enclosing
// span in the spans file, -1 for an op's root.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only (the op loop). A nil tracer records nothing, so the same op
// code serves the untraced pass.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of indices into spans
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span called name, nested under whatever span is open.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNS = int64(time.Since(t.t0))
}

// runOp runs f as the root span of a new op.
func (t *tracer) runOp(name string, f func()) {
	if t != nil {
		t.op++
	}
	t.do(name, f)
}

// durations returns the duration in milliseconds of every span called name
// under a root span called root (an op's spans, not its baseline's).
func (t *tracer) durations(root, name string) sample {
	var out sample
	if t == nil {
		return out
	}
	under := underRoot(t.spans, root)
	for i, s := range t.spans {
		if under[i] && s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// underRoot marks the spans whose op root is called root (roots included).
func underRoot(spans []span, root string) []bool {
	under := make([]bool, len(spans))
	for i, s := range spans { // parents always precede their children
		if s.Parent < 0 {
			under[i] = s.Name == root
		} else {
			under[i] = under[s.Parent]
		}
	}
	return under
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (children are clipped to the parent and
// overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		c := kids[i]
		sort.Slice(c, func(a, b int) bool { return spans[c[a]].StartNS < spans[c[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range c {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// layerSelf sums self time per layer over every span under a root called
// root, and returns the total duration of those roots. The root's own self
// time (harness glue between layer calls) is reported under its own name, so
// the layers' share of the op is 1 - layers[root]/total.
func layerSelf(spans []span, root string) (layers map[string]time.Duration, total time.Duration) {
	self := selfTimes(spans)
	under := underRoot(spans, root)
	layers = make(map[string]time.Duration)
	for i, s := range spans {
		if !under[i] {
			continue
		}
		if s.Parent < 0 {
			total += s.dur()
		}
		layers[layerOf(s.Name)] += self[i]
	}
	return layers, total
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
