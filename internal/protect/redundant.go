// Package protect implements the two *proactive* fault-tolerance baselines
// the paper contrasts SMRP with in its related work (§2):
//
//   - Médard et al.'s redundant trees ("Redundant Trees for Preplanned
//     Recovery in Arbitrary Vertex-Redundant or Edge-Redundant Graphs"):
//     a red and a blue tree rooted at the source such that any single
//     link/node failure leaves every node connected to the source by at
//     least one tree — recovery is an instant switchover (RD = 0) at the
//     price of maintaining two trees and, as the paper notes, a complex
//     construction that needs global topology knowledge;
//
//   - Han & Shin-style dependable connections: each receiver reserves a
//     backup path maximally disjoint from its primary; a failure on the
//     primary activates the backup without a path search.
//
// Both give SMRP's evaluation a "preplanned" corner of the design space to
// compare against: zero recovery distance, but higher standing resource
// usage.
package protect

import (
	"errors"
	"fmt"
	"sort"

	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// ErrNotRedundant is returned when the topology cannot support redundant
// trees (it is not biconnected, so a single failure can partition it).
var ErrNotRedundant = errors.New("protect: graph is not biconnected")

// RedundantTrees is a red/blue tree pair rooted at Source with the Médard
// property: the red path and blue path of every node are internally
// vertex-disjoint.
type RedundantTrees struct {
	Source graph.NodeID
	Red    *multicast.Tree
	Blue   *multicast.Tree
	// Numbering is the underlying st-numbering (diagnostic; red paths
	// descend in it, blue paths ascend).
	Numbering map[graph.NodeID]int
}

// BuildRedundantTrees constructs the red/blue pair on a biconnected graph:
// take an st-numbering with s = source and t = its lowest-ID neighbor; in the red
// tree every vertex attaches to a lower-numbered neighbor (paths descend to
// s), in the blue tree every vertex except t attaches to a higher-numbered
// neighbor and t attaches directly to s (paths ascend to t, then hop to s).
// Because one path uses only lower numbers and the other only higher
// numbers, the two paths of any vertex share no interior vertex.
func BuildRedundantTrees(g *graph.Graph, source graph.NodeID) (*RedundantTrees, error) {
	if source < 0 || int(source) >= g.NumNodes() {
		return nil, fmt.Errorf("protect: source %d not in graph", source)
	}
	neighbors := g.Neighbors(source)
	if len(neighbors) == 0 {
		return nil, ErrNotRedundant
	}
	tEnd := neighbors[0].To // by ID, not row order: rows are sorted by weight
	for _, arc := range neighbors[1:] {
		tEnd = min(tEnd, arc.To)
	}
	num, err := g.STNumbering(source, tEnd)
	if err != nil {
		return nil, fmt.Errorf("protect: %w", err)
	}

	red, err := multicast.New(g, source)
	if err != nil {
		return nil, err
	}
	blue, err := multicast.New(g, source)
	if err != nil {
		return nil, err
	}

	// Process vertices in ascending st-number so every red parent is
	// already on the red tree when its child attaches; descending for blue.
	order := make([]graph.NodeID, 0, g.NumNodes())
	for v := range num {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return num[order[i]] < num[order[j]] })

	// Red tree: parent = the lowest-numbered neighbor (guaranteed lower
	// than v for all v ≠ source). Exception: t must not attach directly to
	// the source — the blue tree already uses the (s, t) edge, and sharing
	// it would leave t with two paths through one link.
	for _, v := range order {
		if v == source {
			continue
		}
		par := graph.Invalid
		best := num[v]
		for _, arc := range g.Neighbors(v) {
			if v == tEnd && arc.To == source {
				continue
			}
			if num[arc.To] < best {
				best = num[arc.To]
				par = arc.To
			}
		}
		if par == graph.Invalid {
			return nil, fmt.Errorf("protect: vertex %d has no red parent", v)
		}
		if err := red.Graft(graph.Path{par, v}, false); err != nil {
			return nil, fmt.Errorf("protect: red graft %d: %w", v, err)
		}
	}

	// Blue tree: t attaches to the source; every other vertex attaches to
	// its highest-numbered neighbor (guaranteed higher).
	if err := blue.Graft(graph.Path{source, tEnd}, false); err != nil {
		return nil, fmt.Errorf("protect: blue root edge: %w", err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v == source || v == tEnd {
			continue
		}
		par := graph.Invalid
		best := num[v]
		for _, arc := range g.Neighbors(v) {
			if num[arc.To] > best {
				best = num[arc.To]
				par = arc.To
			}
		}
		if par == graph.Invalid {
			return nil, fmt.Errorf("protect: vertex %d has no blue parent", v)
		}
		if err := blue.Graft(graph.Path{par, v}, false); err != nil {
			return nil, fmt.Errorf("protect: blue graft %d: %w", v, err)
		}
	}
	return &RedundantTrees{Source: source, Red: red, Blue: blue, Numbering: num}, nil
}

// Subscribe marks m as a receiver on both trees.
func (rt *RedundantTrees) Subscribe(m graph.NodeID) error {
	if err := rt.Red.Graft(graph.Path{m}, true); err != nil {
		return fmt.Errorf("protect: subscribe red: %w", err)
	}
	if err := rt.Blue.Graft(graph.Path{m}, true); err != nil {
		return fmt.Errorf("protect: subscribe blue: %w", err)
	}
	return nil
}

// Reach reports which tree(s) still deliver to m under the failure mask.
type Reach struct {
	ViaRed, ViaBlue bool
}

// Survives evaluates a failure for member m: with the Médard property, at
// least one of the two flags is true for any single link/node failure that
// does not hit m or the source itself.
func (rt *RedundantTrees) Survives(mask *graph.Mask, m graph.NodeID) Reach {
	return Reach{
		ViaRed:  treeDelivers(rt.Red, mask, m),
		ViaBlue: treeDelivers(rt.Blue, mask, m),
	}
}

// treeDelivers walks m's path to the root checking every hop against the
// mask.
func treeDelivers(t *multicast.Tree, mask *graph.Mask, m graph.NodeID) bool {
	p, err := t.PathToSource(m)
	if err != nil {
		return false
	}
	for i := 0; i+1 < len(p); i++ {
		if mask.NodeBlocked(p[i]) || mask.EdgeBlocked(p[i], p[i+1]) {
			return false
		}
	}
	return !mask.NodeBlocked(p[len(p)-1])
}

// PrunedCost returns the combined cost of the two trees with every branch
// that serves no member removed — the resources a deployment would actually
// reserve (the spanning construction is pruned to the subscribed subtrees,
// as Médard et al. note).
func (rt *RedundantTrees) PrunedCost() (float64, error) {
	r := rt.Red.Clone()
	r.PruneStale()
	b := rt.Blue.Clone()
	b.PruneStale()
	rc, err := r.Cost()
	if err != nil {
		return 0, err
	}
	bc, err := b.Cost()
	if err != nil {
		return 0, err
	}
	return rc + bc, nil
}
