package protect

import (
	"fmt"
	"slices"

	"smrp/internal/graph"
)

// DependableConnection is a Han & Shin-style primary/backup channel pair
// for one receiver: the primary carries traffic; the backup is preplanned
// and activated on a primary failure without any path search.
type DependableConnection struct {
	Member  graph.NodeID
	Primary graph.Path // member → … → source
	// Backup runs member → … → source, maximally disjoint from the primary;
	// backup = primary when no partial avoidance exists.
	Backup graph.Path
	// Disjoint reports whether the backup shares no link with the primary
	// (always preferred; false only when the topology forces sharing).
	Disjoint bool
}

// DependableSession manages primary/backup channels for a set of receivers
// of one source.
type DependableSession struct {
	g      *graph.Graph
	source graph.NodeID
	conns  map[graph.NodeID]*DependableConnection
}

// NewDependableSession creates an empty session rooted at source.
func NewDependableSession(g *graph.Graph, source graph.NodeID) (*DependableSession, error) {
	if source < 0 || int(source) >= g.NumNodes() {
		return nil, fmt.Errorf("protect: source %d not in graph", source)
	}
	return &DependableSession{
		g:      g,
		source: source,
		conns:  make(map[graph.NodeID]*DependableConnection),
	}, nil
}

// Join establishes m's primary channel (unicast shortest path) and reserves
// a backup: the shortest path in the graph with every primary link removed.
// If that disconnects m, the primary's links are given back one at a time
// from the source end, so the backup avoids as many as it can of the links
// closest to the member (those are the likeliest to share the primary's
// fate); backup = primary when no partial avoidance exists.
func (s *DependableSession) Join(m graph.NodeID) (*DependableConnection, error) {
	if _, ok := s.conns[m]; ok {
		return nil, fmt.Errorf("protect: %d already joined", m)
	}
	primary, _ := s.g.ShortestPath(m, s.source, nil)
	if primary == nil {
		return nil, fmt.Errorf("protect: %d cannot reach the source", m)
	}
	edges := primary.Edges()
	mask := graph.NewMask()
	for _, e := range edges {
		mask.BlockEdge(e.A, e.B)
	}
	backup, _ := s.g.ShortestPath(m, s.source, mask)
	conn := &DependableConnection{Member: m, Primary: primary, Disjoint: backup != nil}
	// The last round unblocks every link, and the empty mask yields the
	// primary itself, so the loop always ends with a backup.
	for drop := len(edges) - 1; backup == nil; drop-- {
		mask.UnblockEdge(edges[drop].A, edges[drop].B)
		backup, _ = s.g.ShortestPath(m, s.source, mask)
	}
	conn.Backup = backup
	s.conns[m] = conn
	return conn, nil
}

// FailoverOutcome describes how a member weathers a failure.
type FailoverOutcome int

// Failover outcomes. Enum starts at 1 so the zero value is invalid.
const (
	// PrimaryUnaffected: the failure missed the primary entirely.
	PrimaryUnaffected FailoverOutcome = iota + 1
	// SwitchedToBackup: primary hit, backup intact — instant activation.
	SwitchedToBackup
	// BothChannelsDown: both paths hit; the member must fall back to
	// reactive recovery (e.g. SMRP's local detour or an SPF rejoin).
	BothChannelsDown
)

// String implements fmt.Stringer.
func (o FailoverOutcome) String() string {
	switch o {
	case PrimaryUnaffected:
		return "primary-unaffected"
	case SwitchedToBackup:
		return "switched-to-backup"
	case BothChannelsDown:
		return "both-channels-down"
	default:
		return fmt.Sprintf("FailoverOutcome(%d)", int(o))
	}
}

// Failover evaluates the failure mask for member m.
func (s *DependableSession) Failover(mask *graph.Mask, m graph.NodeID) (FailoverOutcome, error) {
	c, ok := s.conns[m]
	if !ok {
		return 0, fmt.Errorf("protect: %d is not joined", m)
	}
	if pathIntact(c.Primary, mask) {
		return PrimaryUnaffected, nil
	}
	if pathIntact(c.Backup, mask) {
		return SwitchedToBackup, nil
	}
	return BothChannelsDown, nil
}

// pathIntact checks every hop and node of the path against the mask.
func pathIntact(p graph.Path, mask *graph.Mask) bool {
	if len(p) == 0 {
		return false
	}
	for i, n := range p {
		if mask.NodeBlocked(n) {
			return false
		}
		if i+1 < len(p) && mask.EdgeBlocked(n, p[i+1]) {
			return false
		}
	}
	return true
}

// ReservedCost is the standing resource usage: the weight of every primary
// plus every backup reservation (links reserved twice count twice, as two
// channels hold them), summed in ascending member order so one session
// always gives the same float.
func (s *DependableSession) ReservedCost() (float64, error) {
	var total float64
	for _, m := range s.Members() {
		c := s.conns[m]
		pw, err := c.Primary.Weight(s.g)
		if err != nil {
			return 0, err
		}
		bw, err := c.Backup.Weight(s.g)
		if err != nil {
			return 0, err
		}
		total += pw + bw
	}
	return total, nil
}

// Members lists joined receivers in ascending order.
func (s *DependableSession) Members() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.conns))
	for m := range s.conns {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}
