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
//     removed, and warms one source-rooted SPF tree per configuration. The
//     trees are built through graph.Dijkstra, so the graph's SPF cache
//     memoizes them by (source, config-mask fingerprint) and every
//     recovery-time lookup is a cache hit riding the iSPF lineage path.
//   - Recover routes each disconnected member along the backup
//     configuration isolating the failed component. Configurations isolate
//     exactly one failure class, so a proposal is validated against the
//     session's full accumulated mask; when every configuration is broken
//     (overlapping failures across classes — outside MRC's single-failure
//     design scope) the scaffold falls back to a live search and counts the
//     miss in Stats.StrategyFallbacks.
//
// MRC proper keeps isolated nodes reachable through restricted links; this
// reproduction approximates isolation by masking the class out entirely,
// which only forfeits recoveries where the member shares a class with the
// failed component — those surface as fallbacks, not wrong routes.
package mrc

import (
	"fmt"
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
	bytesPerSPTreeNode = 16 // Dist float64(8) + Parent NodeID(8), per node per config
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
	// masks[c] blocks configuration c's isolated class.
	masks []*graph.Mask

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

// Name implements core.RecoveryStrategy.
func (st *Strategy) Name() string { return "mrc" }

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

	// Warm one SPF tree per configuration through the shared cache and
	// account the settled work: a full sweep settles every reachable node.
	st.precompSettled = 0
	for c := range st.masks {
		t := g.Dijkstra(src, st.masks[c])
		for id := 0; id < n; id++ {
			if !math.IsInf(t.Dist[id], 1) {
				st.precompSettled++
			}
		}
	}
	st.built = true
	return nil
}

// Recover implements core.RecoveryStrategy: flush dead state, then offer
// each disconnected member its backup-configuration route — the
// configurations isolating a failed component first, then the remaining
// ones, each group in ascending order.
func (st *Strategy) Recover(fs []failure.Failure) (*core.HealReport, error) {
	if st.s == nil || !st.built {
		return nil, fmt.Errorf("mrc: %w", core.ErrUnboundStrategy)
	}
	prefs := st.preferredConfigs(fs)
	g := st.s.Graph()
	tree := st.s.Tree()
	src := tree.Source()
	return st.s.RecoverScaffold(fs, func(m graph.NodeID, mask *graph.Mask) (graph.Path, bool) {
		for _, c := range prefs {
			t := g.Dijkstra(src, st.masks[c])
			if !t.Reachable(m) {
				continue // m is in the isolated class, or cut off in this config
			}
			// The config path runs source→…→m; the scaffold wants the
			// member-outward direction and trims at the first live on-tree
			// node. Pre-validate against the accumulated mask so a broken
			// configuration falls through to the next one instead of
			// burning the proposal.
			p := t.PathTo(m).Reverse()
			if detourUsable(p, tree, mask) {
				return p, true
			}
		}
		return nil, false
	})
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

// detourUsable reports whether the member-outward path p reaches a live
// on-tree node without crossing the accumulated failure mask — the same
// trim-at-first-on-tree-node walk core.Session.sanitizeDetour performs, run
// early so Recover can try the next configuration on a miss.
func detourUsable(p graph.Path, tree interface{ OnTree(graph.NodeID) bool }, mask *graph.Mask) bool {
	for i, n := range p {
		if mask.NodeBlocked(n) {
			return false
		}
		if i > 0 {
			if mask.EdgeBlocked(p[i-1], n) {
				return false
			}
			if tree.OnTree(n) {
				return true
			}
		}
	}
	return false
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
