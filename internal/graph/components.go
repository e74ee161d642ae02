package graph

// ConnectedComponents labels every vertex with the smallest vertex ID
// reachable from it treating edges as undirected, and returns the labels
// plus the number of components. It is used by tests as an oracle for the
// CC benchmark programs.
func ConnectedComponents(g *Graph) ([]VertexID, int) {
	n := g.NumVertices()
	label := make([]VertexID, n)
	for i := range label {
		label[i] = VertexID(n) // sentinel: unvisited
	}
	if g.Directed() {
		g.BuildReverse()
	}
	count := 0
	stack := make([]VertexID, 0, 64)
	for start := 0; start < n; start++ {
		if label[start] != VertexID(n) {
			continue
		}
		count++
		root := VertexID(start)
		stack = append(stack[:0], root)
		label[start] = root
		visit := func(v VertexID) {
			if label[v] == VertexID(n) {
				label[v] = root
				stack = append(stack, v)
			}
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.ForEachOutNeighbor(u, visit)
			if g.Directed() {
				g.ForEachInNeighbor(u, visit)
			}
		}
	}
	return label, count
}
