package core

import "repro/internal/graph"

// Shape classifies a join graph's topology for routing. The classes mirror
// the paper's evaluation workloads: chains and stars are special trees,
// cliques are the dense worst case, and everything else (cycles, snowflake
// arms with cross edges, MusicBrainz walks with shortcut joins) is General.
type Shape string

// Shape classes, from most to least structured.
const (
	ShapeChain   Shape = "chain"
	ShapeStar    Shape = "star"
	ShapeTree    Shape = "tree"
	ShapeClique  Shape = "clique"
	ShapeGeneral Shape = "general"
)

// IsTree reports whether the shape is acyclic (chain, star or general tree),
// the regime where MPDP's tree specialization enumerates in linear output
// time and IDP2 compositions stay near-optimal.
func (s Shape) IsTree() bool {
	return s == ShapeChain || s == ShapeStar || s == ShapeTree
}

// DetectShape classifies g. Graphs of fewer than three vertices are trees
// (or chains) trivially.
func DetectShape(g *graph.Graph) Shape {
	n := g.N
	if n <= 2 {
		return ShapeChain
	}
	if len(g.Edges) == n*(n-1)/2 {
		return ShapeClique
	}
	if !g.IsTree() {
		return ShapeGeneral
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := len(g.Neighbors(v)); d > maxDeg {
			maxDeg = d
		}
	}
	switch {
	case maxDeg <= 2:
		return ShapeChain
	case maxDeg == n-1:
		return ShapeStar
	default:
		return ShapeTree
	}
}
