package topology

import (
	"fmt"

	"smrp/internal/graph"
)

// Fixture names for the worked examples in the paper. Node naming follows
// the figures; the Source constant is always node 0.

// Fig1Nodes gives symbolic names to the nodes of the paper's Figure 1
// topology, in ID order.
var Fig1Nodes = []string{"S", "A", "B", "C", "D"}

// PaperFig1 reconstructs the 5-node topology of the paper's Figure 1:
//
//	S-A:1  S-B:2  A-C:2  A-D:1  C-D:2  B-D:2
//
// The SPF multicast tree for members {C, D} is S→A→C and S→A→D. Failing
// L_AD, the post-reconvergence shortest path for D is D→B→S (weight 4, all
// new links) while the local detour is D→C (weight 2, RD_D = 2) reusing C's
// on-tree path — the example that motivates SMRP's recovery-distance metric.
// Failing L_SA instead disconnects both C and D simultaneously (the
// motivation for reducing path sharing, Figure 2).
func PaperFig1() (*graph.Graph, error) {
	b := graph.New(5)
	edges := []struct {
		u, v graph.NodeID
		w    float64
	}{
		{u: 0, v: 1, w: 1}, // S-A
		{u: 0, v: 2, w: 2}, // S-B
		{u: 1, v: 3, w: 2}, // A-C
		{u: 1, v: 4, w: 1}, // A-D
		{u: 3, v: 4, w: 2}, // C-D
		{u: 2, v: 4, w: 2}, // B-D
	}
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			return nil, fmt.Errorf("fig1: %w", err)
		}
	}
	// Lay the nodes out roughly as drawn, for visualization tools.
	b.SetPos(0, graph.Point{X: 0.5, Y: 1.0})
	b.SetPos(1, graph.Point{X: 0.3, Y: 0.6})
	b.SetPos(2, graph.Point{X: 0.8, Y: 0.6})
	b.SetPos(3, graph.Point{X: 0.2, Y: 0.2})
	b.SetPos(4, graph.Point{X: 0.6, Y: 0.2})
	return b.Freeze(), nil
}

// Fig4Nodes gives symbolic names to the nodes of the Figure 4/5 topology,
// in ID order.
var Fig4Nodes = []string{"S", "A", "B", "D", "E", "G", "F", "C"}

// PaperFig4 reconstructs a topology consistent with the paper's Figures 4
// and 5 (basic tree construction and reshaping with members E, G, F and
// D_thresh = 0.3). The exact figure is not fully legible from the text, so
// this fixture is engineered to reproduce the *decisions* the paper narrates:
//
//   - E joins first via the shortest path E→D→A→S, giving SHR(S,D) = 2.
//   - G then prefers G→B→S (merger S, SHR 0) over the shorter G→F→D→A→S.
//   - F's S-merger options (F→B→S, F→G→B→S) exceed (1+0.3)·SPF, so F joins
//     via F→D→A→S, raising SHR(S,D) to 4.
//   - E's reshaping (Condition I) then switches E to E→C→A→S whose merger A
//     has SHR 2 < 4.
//
// Node IDs: S=0 A=1 B=2 D=3 E=4 G=5 F=6 C=7.
func PaperFig4() (*graph.Graph, error) {
	b := graph.New(8)
	edges := []struct {
		u, v graph.NodeID
		w    float64
	}{
		{u: 0, v: 1, w: 1.0}, // S-A
		{u: 0, v: 2, w: 1.6}, // S-B
		{u: 1, v: 3, w: 1.0}, // A-D
		{u: 1, v: 7, w: 1.1}, // A-C
		{u: 3, v: 4, w: 0.6}, // D-E
		{u: 7, v: 4, w: 0.9}, // C-E
		{u: 3, v: 6, w: 0.7}, // D-F
		{u: 6, v: 5, w: 0.8}, // F-G
		{u: 2, v: 5, w: 2.0}, // B-G
		{u: 2, v: 6, w: 2.6}, // B-F
	}
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			return nil, fmt.Errorf("fig4: %w", err)
		}
	}
	b.SetPos(0, graph.Point{X: 0.5, Y: 1.0})
	b.SetPos(1, graph.Point{X: 0.3, Y: 0.7})
	b.SetPos(2, graph.Point{X: 0.8, Y: 0.7})
	b.SetPos(3, graph.Point{X: 0.25, Y: 0.4})
	b.SetPos(7, graph.Point{X: 0.45, Y: 0.45})
	b.SetPos(4, graph.Point{X: 0.35, Y: 0.15})
	b.SetPos(6, graph.Point{X: 0.6, Y: 0.3})
	b.SetPos(5, graph.Point{X: 0.85, Y: 0.25})
	return b.Freeze(), nil
}
