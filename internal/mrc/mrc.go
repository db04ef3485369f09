// Package mrc implements a Multiple Routing Configurations (MRC) recovery
// baseline in the style of Enhanced MRC (Kumar & Krishna Prasad,
// arXiv:1212.0311): k backup routing configurations are precomputed over the
// shared topology, each isolating a disjoint class of nodes, and recovery
// switches the affected subtree onto the configuration that isolates the
// failed component — a table-driven config switch instead of SMRP's reactive
// nearest-survivor search.
//
// The implementation plugs into core.Session through the
// core.RecoveryStrategy seam:
//
//   - Precompute partitions the nodes (source excluded) into k isolation
//     classes, greedily keeping the residual graph connected when a class is
//     removed, and builds one source-rooted SPF tree per configuration. The
//     strategy holds the k trees itself — they are the precomputed state
//     StateBytes charges for, and the graph's SPF cache keeps only each
//     source's healthy tree — so a recovery reads them without a lookup.
//   - Propose offers each disconnected member its route in the backup
//     configuration isolating the failed component, then in the others.
//     Configurations isolate exactly one failure class, so the session
//     checks each route against its full accumulated mask; when every
//     configuration is broken (overlapping failures across classes —
//     outside MRC's single-failure design scope) the session falls back to
//     a live search and counts the miss in Stats.StrategyFallbacks.
//
// MRC proper keeps isolated nodes reachable through restricted links; this
// reproduction approximates isolation by masking the class out entirely,
// which only forfeits recoveries where the member shares a class with the
// failed component — those surface as fallbacks, not wrong routes.
package mrc

import (
	"math"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// DefaultConfigurations is the backup-configuration count used when New is
// given k < 1. Small k keeps per-config state low but makes classes large
// (coarser isolation); the EMRC paper evaluates k in the low single digits.
const DefaultConfigurations = 4

// Deterministic per-element sizes of the precomputed state, in the style of
// graph.MemoryFootprint: fixed constants, never live heap measurement.
const (
	bytesPerSPTreeNode = 12 // Dist float64(8) + parent int32(4), per node per config
	bytesPerClassEntry = 4  // classOf int32, per node
)

// Strategy is the MRC recovery strategy. Create with New, then install via
// core.Config.Strategy; one instance serves one session.
type Strategy struct {
	k int
	s *core.Session

	// classOf maps each node to the configuration that isolates it
	// (-1: never isolated — the source, plus nodes whose removal would
	// disconnect every candidate configuration).
	classOf []int32
	// masks[c] blocks configuration c's isolated class; trees[c] is the
	// source's shortest-path tree under it.
	masks []*graph.Mask
	trees []*graph.SPTree

	built          bool
	precompSettled int
}

// New returns an MRC strategy precomputing k backup configurations
// (k < 1 selects DefaultConfigurations).
func New(k int) *Strategy {
	if k < 1 {
		k = DefaultConfigurations
	}
	return &Strategy{k: k}
}

// Precompute implements core.RecoveryStrategy: it binds the session and
// builds the isolation classes and per-configuration SPF trees once (the
// state depends only on the topology, so later calls — the session notifies
// after every tree mutation — return immediately).
func (st *Strategy) Precompute(s *core.Session) error {
	if st.built && st.s == s {
		return nil
	}
	st.s = s
	g := s.Graph()
	src := s.Tree().Source()
	n := g.NumNodes()

	st.classOf = make([]int32, n)
	for i := range st.classOf {
		st.classOf[i] = -1
	}
	st.masks = make([]*graph.Mask, st.k)
	for c := range st.masks {
		st.masks[c] = graph.NewMaskWithCapacity(n)
	}

	// Greedy class assignment in node-ID order, round-robin across
	// configurations: a node joins the first configuration that stays
	// connected with the node added to its isolated class. Nodes no
	// configuration can absorb (articulation points every class already
	// strains) stay unassigned; failures there fall back to a live search.
	next := 0
	for id := 0; id < n; id++ {
		v := graph.NodeID(id)
		if v == src {
			continue
		}
		for j := 0; j < st.k; j++ {
			c := (next + j) % st.k
			st.masks[c].BlockNode(v)
			if g.Connected(st.masks[c]) {
				st.classOf[id] = int32(c)
				next = (c + 1) % st.k
				break
			}
			st.masks[c].UnblockNode(v)
		}
	}

	// Build one SPF tree per configuration and account the settled work: a
	// full sweep settles every reachable node.
	st.precompSettled = 0
	st.trees = make([]*graph.SPTree, st.k)
	for c := range st.masks {
		t := g.Dijkstra(src, st.masks[c])
		st.trees[c] = t
		for id := 0; id < n; id++ {
			if !math.IsInf(t.Dist[id], 1) {
				st.precompSettled++
			}
		}
	}
	st.built = true
	return nil
}

// Propose implements core.RecoveryStrategy: it offers m's route in each
// backup configuration that reaches it, in preferredConfigs order. The
// configuration trees run source→…→m, so each route is offered reversed,
// member first; the session trims it at its first live on-tree node and
// rejects one that crosses the accumulated mask, which moves on to the next
// configuration.
func (st *Strategy) Propose(fs []failure.Failure, m graph.NodeID, offer func(graph.Path) bool) {
	for _, c := range st.preferredConfigs(fs) {
		t := st.trees[c]
		// m is unreachable when it is in c's isolated class or cut off in c.
		if t.Reachable(m) && offer(t.PathTo(m).Reverse()) {
			return
		}
	}
}

// preferredConfigs orders the configurations for one recovery: those
// isolating a component of fs first (node failures by the node's class,
// link failures by either endpoint's class), then every other
// configuration, each group ascending. The order depends on the set of
// failures alone, not on the order fs lists them in.
func (st *Strategy) preferredConfigs(fs []failure.Failure) []int {
	isolating := make([]bool, st.k)
	mark := func(v graph.NodeID) {
		if v >= 0 && int(v) < len(st.classOf) && st.classOf[v] >= 0 {
			isolating[st.classOf[v]] = true
		}
	}
	for _, f := range fs {
		switch f.Kind {
		case failure.NodeFailure:
			mark(f.Node)
		case failure.LinkFailure:
			mark(f.Edge.A)
			mark(f.Edge.B)
		}
	}
	prefs := make([]int, 0, st.k)
	for _, first := range []bool{true, false} {
		for c, iso := range isolating {
			if iso == first {
				prefs = append(prefs, c)
			}
		}
	}
	return prefs
}

// StateBytes implements core.RecoveryStrategy: k precomputed SPF trees plus
// the per-configuration class masks and the class table, at fixed
// per-element sizes.
func (st *Strategy) StateBytes() int64 {
	if !st.built {
		return 0
	}
	n := int64(len(st.classOf))
	maskWords := (n + 63) / 64
	perConfig := n*bytesPerSPTreeNode + maskWords*8
	return int64(st.k)*perConfig + n*bytesPerClassEntry
}

// PrecomputeSettled returns the nodes settled building the per-configuration
// SPF trees — the strategy's precompute-time share of the settled-node work
// the strategies study reports.
func (st *Strategy) PrecomputeSettled() int { return st.precompSettled }
