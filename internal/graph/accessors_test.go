package graph

// The slice accessors below have no caller outside this package's tests:
// vertex programs and the engine read adjacency through OutArcs/InArcs or
// OutList. The tests keep them as oracles for those.

// OutNeighbors returns the out-adjacency list of u. For flat graphs the
// slice is shared and must not be modified; for compact graphs it is a
// freshly allocated copy.
func (g *Graph) OutNeighbors(u VertexID) []VertexID {
	var fresh []VertexID
	return g.OutList(u, &fresh)
}

// OutWeights returns the weights parallel to OutNeighbors(u), or nil when
// the graph is unweighted.
func (g *Graph) OutWeights(u VertexID) []float64 {
	if g.outW == nil {
		return nil
	}
	return g.outW[g.outOff[u]:g.outOff[u+1]]
}

// InNeighbors returns the in-adjacency list of u. The reverse adjacency
// must be available (BuildReverse for directed graphs). For flat graphs
// the slice is shared and must not be modified; for compact graphs it is
// a freshly allocated copy.
func (g *Graph) InNeighbors(u VertexID) []VertexID {
	if !g.ensureIn() {
		panic("graph: InNeighbors requires reverse adjacency; call BuildReverse")
	}
	if g.cInIdx != nil {
		return decodeList(make([]VertexID, g.InDegree(u)), g.cIn[g.cInIdx[u]:g.cInIdx[u+1]])
	}
	return g.inAdj[g.inOff[u]:g.inOff[u+1]]
}

// InWeights returns the weights parallel to InNeighbors(u), or nil when the
// graph is unweighted.
func (g *Graph) InWeights(u VertexID) []float64 {
	if g.lazyIn && g.outW != nil {
		g.inOnce.Do(g.materializeIn)
	}
	if g.inW == nil {
		return nil
	}
	return g.inW[g.inOff[u]:g.inOff[u+1]]
}
