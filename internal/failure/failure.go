// Package failure models persistent network failures (link cuts, node
// crashes) against multicast trees, and computes the two recovery paths the
// paper compares:
//
//   - local detour: the shortest residual path from a disconnected member to
//     the nearest on-tree node unaffected by the failure (SMRP's recovery);
//   - global detour: the member's new unicast shortest path to the source
//     after routing reconvergence (the SPF/PIM baseline recovery), whose
//     recovery distance counts only links not already on the surviving tree.
//
// It also selects the paper's per-member worst case: the failure of the
// link incident to the source on the member's multicast path (§4.3.1).
package failure

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// Kind distinguishes link from node failures.
type Kind int

// Failure kinds. Enum starts at 1 so the zero value is invalid.
const (
	LinkFailure Kind = iota + 1
	NodeFailure
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LinkFailure:
		return "link"
	case NodeFailure:
		return "node"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Failure is a persistent component failure.
type Failure struct {
	Kind Kind
	Edge graph.EdgeID // valid when Kind == LinkFailure
	Node graph.NodeID // valid when Kind == NodeFailure
}

// LinkDown returns the failure of the undirected link (u, v).
func LinkDown(u, v graph.NodeID) Failure {
	return Failure{Kind: LinkFailure, Edge: graph.MakeEdgeID(u, v)}
}

// NodeDown returns the failure of node n (all incident links die with it).
func NodeDown(n graph.NodeID) Failure {
	return Failure{Kind: NodeFailure, Node: n}
}

// Mask expresses the failure as a traversal mask.
func (f Failure) Mask() *graph.Mask {
	m := graph.NewMask()
	switch f.Kind {
	case LinkFailure:
		m.BlockEdge(f.Edge.A, f.Edge.B)
	case NodeFailure:
		m.BlockNode(f.Node)
	}
	return m
}

// String implements fmt.Stringer.
func (f Failure) String() string {
	switch f.Kind {
	case LinkFailure:
		return fmt.Sprintf("link%v down", f.Edge)
	case NodeFailure:
		return fmt.Sprintf("node %d down", f.Node)
	default:
		return "no failure"
	}
}

// Errors returned by recovery computations.
var (
	// ErrNotDisconnected is returned when recovery is requested for a member
	// the failure did not actually cut off.
	ErrNotDisconnected = errors.New("failure: member is not disconnected")
	// ErrUnrecoverable is returned when no residual path can restore the
	// member (the failure partitions it from the source).
	ErrUnrecoverable = errors.New("failure: no recovery path exists")
	// ErrSourceFailed is returned when the failure takes down the multicast
	// source itself.
	ErrSourceFailed = errors.New("failure: multicast source failed")
)

// TakesDownNode reports whether any failure in fs is a node failure of n.
// Recovery entry points use it with the multicast source to reject a batch
// that would take the source down *before* any session state is mutated —
// a source failure has no recovery (see ErrSourceFailed), so folding it
// into an accumulated mask on a rejected request would corrupt the session.
func TakesDownNode(fs []Failure, n graph.NodeID) bool {
	for _, f := range fs {
		if f.Kind == NodeFailure && f.Node == n {
			return true
		}
	}
	return false
}

// WorstCaseFor returns the paper's worst-case failure for member m on tree
// t: the on-tree link incident to the source on m's multicast path. This
// failure disables the largest possible portion of m's path.
func WorstCaseFor(t *multicast.Tree, m graph.NodeID) (Failure, error) {
	p, err := t.PathToSource(m)
	if err != nil {
		return Failure{}, err
	}
	if len(p) < 2 {
		return Failure{}, fmt.Errorf("worst case for %d: %w: member is the source", m, ErrNotDisconnected)
	}
	// p runs member→…→source; the source-incident link is the last hop.
	return LinkDown(p[len(p)-1], p[len(p)-2]), nil
}

// SurvivingNodes returns the set of on-tree nodes still connected to the
// source over tree edges after applying the failure mask. The source is
// surviving unless it failed itself, in which case the set is empty.
func SurvivingNodes(t *multicast.Tree, mask *graph.Mask) map[graph.NodeID]bool {
	out := make(map[graph.NodeID]bool, t.NumNodes())
	src := t.Source()
	if mask.NodeBlocked(src) {
		return out
	}
	out[src] = true
	stack := []graph.NodeID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range t.Children(n) {
			if mask.NodeBlocked(k) || mask.EdgeBlocked(n, k) {
				continue
			}
			out[k] = true
			stack = append(stack, k)
		}
	}
	return out
}

// DisconnectedMembers returns the members cut off from the source by the
// failure, in ascending order. Members that failed themselves (node
// failures) are excluded — they are gone, not disconnected.
func DisconnectedMembers(t *multicast.Tree, mask *graph.Mask) []graph.NodeID {
	return DisconnectedAmong(t, mask, SurvivingNodes(t, mask))
}

// DisconnectedAmong is DisconnectedMembers for a caller that already holds
// SurvivingNodes(t, mask).
func DisconnectedAmong(t *multicast.Tree, mask *graph.Mask, surviving map[graph.NodeID]bool) []graph.NodeID {
	var out []graph.NodeID
	for _, m := range t.Members() {
		if !surviving[m] && !mask.NodeBlocked(m) {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// LocalDetour computes SMRP's local recovery for disconnected member m: the
// shortest path in the residual network from m to the nearest on-tree node
// unaffected by the failure. The returned distance is the paper's recovery
// distance RD_R ("the distance between the disconnected member R and its
// local recovery on-tree node", §4.2). The path runs m → … → survivor.
func LocalDetour(t *multicast.Tree, mask *graph.Mask, m graph.NodeID) (graph.Path, float64, error) {
	surviving := SurvivingNodes(t, mask)
	if len(surviving) == 0 {
		return nil, 0, ErrSourceFailed
	}
	if surviving[m] {
		return nil, 0, fmt.Errorf("local detour for %d: %w", m, ErrNotDisconnected)
	}
	if mask.NodeBlocked(m) {
		return nil, 0, fmt.Errorf("local detour for %d: %w", m, ErrMemberFailed)
	}
	node, p, d := t.Graph().NearestOf(m, mask, func(n graph.NodeID) bool { return surviving[n] })
	if node == graph.Invalid {
		return nil, 0, fmt.Errorf("local detour for %d: %w", m, ErrUnrecoverable)
	}
	return p, d, nil
}

// GlobalDetour computes the SPF baseline recovery for disconnected member m:
// after unicast routing reconverges, m rejoins along its new shortest path
// to the source. Per PIM join semantics the Join_Req travels only until the
// first node that is still on the surviving tree — the segment of new links
// that must be brought into the multicast tree — so the recovery distance is
// the weight of that prefix. The full new path is returned (m → … → source).
func GlobalDetour(t *multicast.Tree, mask *graph.Mask, m graph.NodeID) (graph.Path, float64, error) {
	surviving := SurvivingNodes(t, mask)
	if len(surviving) == 0 {
		return nil, 0, ErrSourceFailed
	}
	if surviving[m] {
		return nil, 0, fmt.Errorf("global detour for %d: %w", m, ErrNotDisconnected)
	}
	if mask.NodeBlocked(m) {
		return nil, 0, fmt.Errorf("global detour for %d: %w", m, ErrMemberFailed)
	}
	g := t.Graph()
	p, _ := g.ShortestPath(m, t.Source(), mask)
	if p == nil {
		return nil, 0, fmt.Errorf("global detour for %d: %w", m, ErrUnrecoverable)
	}
	var rd float64
	for i := 0; i+1 < len(p); i++ {
		if surviving[p[i]] {
			break // merged into the surviving tree; the rest rides it
		}
		w, ok := g.EdgeWeight(p[i], p[i+1])
		if !ok {
			return nil, 0, fmt.Errorf("global detour for %d: %d-%d not an edge", m, p[i], p[i+1])
		}
		rd += w
	}
	return p, rd, nil
}
