package topology

import (
	"encoding/json"
	"fmt"
	"io"

	"smrp/internal/graph"
)

// jsonTopology is the on-disk representation of a topology.
type jsonTopology struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID int     `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

type jsonEdge struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Weight float64 `json:"weight"`
}

// WriteJSON serializes g to w as indented JSON, with nodes and edges in
// deterministic order.
func WriteJSON(w io.Writer, g *graph.Graph) error {
	jt := jsonTopology{
		Nodes: make([]jsonNode, g.NumNodes()),
		Edges: make([]jsonEdge, 0, g.NumEdges()),
	}
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Pos(graph.NodeID(i))
		jt.Nodes[i] = jsonNode{ID: i, X: p.X, Y: p.Y}
	}
	for _, e := range g.Edges() {
		wgt, _ := g.EdgeWeight(e.A, e.B)
		jt.Edges = append(jt.Edges, jsonEdge{U: int(e.A), V: int(e.B), Weight: wgt})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jt); err != nil {
		return fmt.Errorf("encode topology: %w", err)
	}
	return nil
}

// ReadJSON parses a topology previously written by WriteJSON.
func ReadJSON(r io.Reader) (*graph.Graph, error) {
	var jt jsonTopology
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("decode topology: %w", err)
	}
	for i, n := range jt.Nodes {
		if n.ID != i {
			return nil, fmt.Errorf("decode topology: node IDs must be dense, got %d at index %d", n.ID, i)
		}
	}
	b := graph.New(len(jt.Nodes))
	for _, n := range jt.Nodes {
		b.SetPos(graph.NodeID(n.ID), graph.Point{X: n.X, Y: n.Y})
	}
	for _, e := range jt.Edges {
		if err := b.AddEdge(graph.NodeID(e.U), graph.NodeID(e.V), e.Weight); err != nil {
			return nil, fmt.Errorf("decode topology: %w", err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		return nil, fmt.Errorf("decode topology: %w", err)
	}
	return g, nil
}
