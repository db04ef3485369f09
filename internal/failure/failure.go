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

// Check returns an error when a failure in fs is of neither kind (wrapping
// ErrBadSchedule) or names something topology g does not have: a node outside
// it (wrapping graph.ErrUnknownNode), or a link whose endpoints no edge joins,
// a node paired with itself included (wrapping graph.ErrUnknownEdge). Masks
// index by node ID, and a link that does not exist cuts nobody off yet leaves
// the session degraded, so every entry point that takes failures from outside
// checks the whole batch with it before folding any of it into a mask.
func Check(fs []Failure, g *graph.Graph) error {
	known := func(v graph.NodeID) bool { return v >= 0 && int(v) < g.NumNodes() }
	for _, f := range fs {
		switch {
		case f.Kind != LinkFailure && f.Kind != NodeFailure:
			return fmt.Errorf("%w: failure of %v", ErrBadSchedule, f.Kind)
		case f.Kind == LinkFailure && !(known(f.Edge.A) && known(f.Edge.B)),
			f.Kind == NodeFailure && !known(f.Node):
			return fmt.Errorf("%v: %w", f, graph.ErrUnknownNode)
		case f.Kind == LinkFailure && !g.HasEdge(f.Edge.A, f.Edge.B):
			return fmt.Errorf("%v: %w", f, graph.ErrUnknownEdge)
		}
	}
	return nil
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
// surviving unless it failed itself, in which case the set is empty. It walks
// the whole surviving tree; recovery itself goes by DeadRoots.
func SurvivingNodes(t *multicast.Tree, mask *graph.Mask) map[graph.NodeID]bool {
	out := make(map[graph.NodeID]bool, t.NumNodes())
	src := t.Source()
	if mask.NodeBlocked(src) {
		return out
	}
	out[src] = true
	stack := []graph.NodeID{src}
	var kids []graph.NodeID
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		kids = t.AppendChildren(kids[:0], n)
		for _, k := range kids {
			if mask.NodeBlocked(k) || mask.EdgeBlocked(n, k) {
				continue
			}
			out[k] = true
			stack = append(stack, k)
		}
	}
	return out
}

// DeadRoots finds the maximal subtrees of t that mask cuts off from the
// source, working from the mask instead of the tree. Wherever a subtree is
// dead, the hop into its root is broken, and a broken hop is named by the
// mask: its lower end is an on-tree node the mask blocks, or the child end of
// a tree edge the mask blocks. Those are the candidates, taken in ascending
// order; from each one that is still on the tree a walk to the source finds
// the broken hop nearest the source, whose lower end is the root of the dead
// subtree the candidate lies in. visit is called with that root.
//
// visit may detach root's subtree (and change nothing else): the candidates
// that went with it are then skipped, so each dead subtree costs one walk. A
// visit that leaves the tree alone sees a root again for every candidate
// below it. An error from visit ends the search and is returned.
//
// cand is scratch for the candidate list, returned for reuse. visited counts
// the mask elements examined plus the tree hops walked. ErrSourceFailed is
// returned when the mask blocks the source.
func DeadRoots(t *multicast.Tree, mask *graph.Mask, cand []graph.NodeID, visit func(root graph.NodeID) error) (scratch []graph.NodeID, visited int, err error) {
	src := t.Source()
	if mask.NodeBlocked(src) {
		return cand, 0, ErrSourceFailed
	}
	cand = cand[:0]
	mask.Each(func(e graph.MaskElem) {
		visited++
		// An off-tree node has no parent, so neither test below passes for
		// an edge the tree does not use.
		switch a, b := e.Edge.A, e.Edge.B; {
		case !e.IsEdge:
			if t.OnTree(e.Node) {
				cand = append(cand, e.Node)
			}
		case parentIs(t, a, b):
			cand = append(cand, a)
		case parentIs(t, b, a):
			cand = append(cand, b)
		}
	})
	slices.Sort(cand)
	for _, c := range cand {
		root := graph.Invalid
		for n := c; n != src; {
			p, ok := t.Parent(n)
			if !ok {
				break
			}
			if mask.EdgeBlocked(n, p) {
				root = n
			}
			n = p
			visited++
		}
		if root == graph.Invalid {
			continue // off the tree: c went with a subtree visit detached
		}
		if err := visit(root); err != nil {
			return cand, visited, err
		}
	}
	return cand, visited, nil
}

// parentIs reports whether n is on the tree directly below p.
func parentIs(t *multicast.Tree, n, p graph.NodeID) bool {
	up, ok := t.Parent(n)
	return ok && up == p
}

// DisconnectedMembers returns the members cut off from the source by the
// failure, in ascending order. Members that failed themselves (node
// failures) are excluded — they are gone, not disconnected.
func DisconnectedMembers(t *multicast.Tree, mask *graph.Mask) []graph.NodeID {
	var out, stack []graph.NodeID
	_, _, err := DeadRoots(t, mask, nil, func(root graph.NodeID) error {
		stack = append(stack, root)
		return nil
	})
	if err != nil {
		stack = append(stack, t.Source()) // nothing survives a failed source
	}
	// Nested candidates report their root once each; the subtrees below
	// distinct roots are disjoint, so sorted roots compact to the set.
	slices.Sort(stack)
	stack = slices.Compact(stack)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.IsMember(n) && !mask.NodeBlocked(n) {
			out = append(out, n)
		}
		stack = t.AppendChildren(stack, n)
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
