// Package smrp is a Go implementation of SMRP, the Survivable Multicast
// Routing Protocol (Wu & Shin, "SMRP: Fast Restoration of Multicast Sessions
// from Persistent Failures", DSN 2005): sessions that join under a delay
// bound and restore through local detours, with what they run on and are
// compared against — Waxman/transit–stub topology generators, a link-state
// unicast routing substrate, a deterministic discrete-event simulator, an
// SPF/PIM baseline, the MRC and precomputed-detour recovery strategies, the
// preplanned-protection baselines and a hierarchical recovery architecture.
// The studies that regenerate the paper's figures are not part of this API;
// run them with smrp-sim -fig (cmd/smrp-sim).
//
// # Quick start
//
//	net, _ := smrp.GenerateWaxman(100, 0.2, smrp.DefaultBeta, 42)
//	sess, _ := smrp.NewSession(net, 0, smrp.DefaultConfig())
//	sess.Join(17)
//	sess.Join(33)
//	rep, _ := sess.Recover(smrp.LinkDown(0, 5)) // recover from a cut
//	fmt.Println(rep.TotalRecoveryDistance())
//
// The package re-exports the library's building blocks through type
// aliases, so one import gives access to the full system; the underlying
// implementations live in internal/ packages organized per subsystem (see
// DESIGN.md for the map).
package smrp

import (
	"slices"

	"smrp/internal/core"
	"smrp/internal/detour"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/mrc"
	"smrp/internal/multicast"
	"smrp/internal/spfbase"
	"smrp/internal/topology"
)

// Tree is a source-rooted multicast tree overlaid on a Network.
type Tree = multicast.Tree

// Graph-layer aliases.
type (
	// NodeID identifies a network node.
	NodeID = graph.NodeID
	// EdgeID identifies an undirected link by its canonical endpoints.
	EdgeID = graph.EdgeID
	// Path is a node sequence connected by links.
	Path = graph.Path
	// Network is the weighted undirected network graph.
	Network = graph.Graph
	// Point is a 2-D node position.
	Point = graph.Point
	// Mask excludes failed or avoided components from traversal.
	Mask = graph.Mask
)

// Invalid is the sentinel "no node" identifier.
const Invalid = graph.Invalid

// Topology-generation aliases.
type (
	// WaxmanConfig parameterizes the Waxman random-graph model.
	WaxmanConfig = topology.WaxmanConfig
	// TransitStubConfig parameterizes the transit–stub generator.
	TransitStubConfig = topology.TransitStubConfig
	// RNG is the deterministic random generator all generation uses.
	RNG = topology.RNG
	// TopologyStats summarizes a generated topology.
	TopologyStats = topology.Stats
)

// DefaultBeta is the calibrated Waxman β used throughout the evaluation.
const DefaultBeta = topology.DefaultBeta

// NewRNG returns a seeded deterministic random generator.
func NewRNG(seed uint64) *RNG { return topology.NewRNG(seed) }

// GenerateWaxman builds a connected Waxman random network with n nodes.
func GenerateWaxman(n int, alpha, beta float64, seed uint64) (*Network, error) {
	return topology.Waxman(WaxmanConfig{
		N:               n,
		Alpha:           alpha,
		Beta:            beta,
		EnsureConnected: true,
	}, topology.NewRNG(seed))
}

// GenerateTransitStub builds a 2-level transit–stub network: the two-level
// NLevelTopology whose domain 0 is the transit core and domain i ≥ 1 a stub.
func GenerateTransitStub(cfg TransitStubConfig, seed uint64) (*NLevelTopology, error) {
	return topology.GenerateTransitStub(cfg, topology.NewRNG(seed))
}

// DefaultTransitStubConfig returns the transit–stub setup used by the
// hierarchical experiments.
func DefaultTransitStubConfig() TransitStubConfig {
	return topology.DefaultTransitStubConfig()
}

// DescribeTopology computes summary statistics for a network.
func DescribeTopology(n *Network) TopologyStats { return topology.Describe(n) }

// SMRP-core aliases.
type (
	// Config parameterizes an SMRP session (D_thresh, reshaping, knowledge
	// mode and tree storage).
	Config = core.Config
	// Session is a synchronous SMRP multicast session.
	Session = core.Session
	// JoinResult describes the outcome of a member join.
	JoinResult = core.JoinResult
	// HealReport describes a local-detour recovery.
	HealReport = core.HealReport
	// Stats counts protocol work for overhead studies.
	Stats = core.Stats
	// Knowledge selects full-topology or query-scheme discovery.
	Knowledge = core.Knowledge
	// TreeStorage selects the session's tree-state backend: dense
	// NodeID-indexed arrays (O(topology) standing bytes) or the sparse
	// touched-node remap (O(|tree| + |members|)).
	TreeStorage = core.TreeStorage
)

// Re-exported enum values.
const (
	FullTopology = core.FullTopology
	QueryScheme  = core.QueryScheme
	// Tree-storage modes for Config.TreeStorage: StorageAuto (the zero
	// value) keeps dense arrays below SparseNodeThreshold graph nodes and
	// cuts over to sparse above it.
	StorageAuto   = core.StorageAuto
	StorageDense  = core.StorageDense
	StorageSparse = core.StorageSparse
)

// SparseNodeThreshold is the StorageAuto cutover: sessions on topologies
// with at least this many nodes default to sparse tree storage.
const SparseNodeThreshold = core.SparseNodeThreshold

// DefaultConfig returns the paper's evaluation configuration
// (D_thresh = 0.3, Condition I+II reshaping, full topology).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewSession creates an SMRP session on net rooted at source.
func NewSession(net *Network, source NodeID, cfg Config) (*Session, error) {
	return core.NewSession(net, source, cfg)
}

// ComputeSHR returns the paper's path-sharing metric for every on-tree node
// of a multicast tree.
func ComputeSHR(t *Tree) map[NodeID]int { return core.ComputeSHR(t) }

// RecoveryStrategy is the pluggable failure-restoration seam: it proposes the
// detours a session reconnects members along after persistent failures, and
// the session validates, grafts and falls back on its own. Install one via
// Config.Strategy (nil keeps SMRP's local-detour recovery); instances are
// bound to a single session.
type RecoveryStrategy = core.RecoveryStrategy

// NewMRCStrategy returns the MRC backup-configurations baseline: k
// precomputed routing configurations, each isolating a disjoint node class;
// recovery switches affected members onto the configuration isolating the
// failed component (k < 1 selects the package default).
func NewMRCStrategy(k int) RecoveryStrategy { return mrc.New(k) }

// NewDetourStrategy returns the Bhosle–Gonzalez precomputed-detour baseline:
// every on-tree node precomputes, at graft time, the detour it would use if
// its parent failed; recovery is a table lookup plus a graft.
func NewDetourStrategy() RecoveryStrategy { return detour.New() }

// Baseline aliases.
type (
	// SPFSession is the SPF/PIM-style baseline session.
	SPFSession = spfbase.Session
	// SPFHealReport describes a global-detour recovery.
	SPFHealReport = spfbase.HealReport
)

// NewSPFSession creates a baseline SPF multicast session.
func NewSPFSession(net *Network, source NodeID) (*SPFSession, error) {
	return spfbase.NewSession(net, source)
}

// Failure-model aliases.
type (
	// Failure is a persistent link or node failure.
	Failure = failure.Failure
	// FailureKind distinguishes link from node failures.
	FailureKind = failure.Kind
)

// Re-exported failure kinds.
const (
	LinkFailure = failure.LinkFailure
	NodeFailure = failure.NodeFailure
)

// LinkDown returns the failure of the undirected link (u, v).
func LinkDown(u, v NodeID) Failure { return failure.LinkDown(u, v) }

// NodeDown returns the failure of node n.
func NodeDown(n NodeID) Failure { return failure.NodeDown(n) }

// WorstCaseFor returns the paper's worst-case failure for a member: the
// source-incident link of its multicast path.
func WorstCaseFor(t *Tree, m NodeID) (Failure, error) { return failure.WorstCaseFor(t, m) }

// LocalDetour computes SMRP's recovery path and distance for a disconnected
// member.
func LocalDetour(t *Tree, mask *Mask, m NodeID) (Path, float64, error) {
	return failure.LocalDetour(t, mask, m)
}

// GlobalDetour computes the SPF baseline's recovery path and distance.
func GlobalDetour(t *Tree, mask *Mask, m NodeID) (Path, float64, error) {
	return failure.GlobalDetour(t, mask, m)
}

// DisconnectedMembers lists the members a failure cuts off.
func DisconnectedMembers(t *Tree, mask *Mask) []NodeID {
	return failure.DisconnectedMembers(t, mask)
}

// SurvivingNodes returns the on-tree nodes a failure leaves connected.
func SurvivingNodes(t *Tree, mask *Mask) map[NodeID]bool {
	return failure.SurvivingNodes(t, mask)
}

// Multi-failure schedule aliases (overlapping failures, SRLG-correlated
// cuts, repairs).
type (
	// FailureSchedule is a time-ordered sequence of failure/repair events.
	FailureSchedule = failure.Schedule
	// FailureEvent is one schedule step: correlated failures plus repairs.
	FailureEvent = failure.Event
	// ChaosConfig parameterizes random-schedule generation.
	ChaosConfig = failure.ChaosConfig
)

// SRLG builds a shared-risk link group around node n: the correlated
// failure of every link incident to n (the node survives, its links don't).
func SRLG(g *Network, n NodeID) []Failure { return failure.SRLG(g, n) }

// DefaultChaosConfig returns the chaos harness's schedule-generation
// defaults.
func DefaultChaosConfig() ChaosConfig { return failure.DefaultChaosConfig() }

// RandomSchedule draws a seeded multi-failure schedule against a topology:
// correlated bursts, node failures, optional full partition of a victim, and
// repairs. The source is never failed directly.
func RandomSchedule(g *Network, source NodeID, victims []NodeID, cfg ChaosConfig, rng *RNG) (FailureSchedule, error) {
	return failure.RandomSchedule(g, source, victims, cfg, rng)
}

// PaperFig1 reconstructs the Figure 1 topology (S, A, B, C, D).
func PaperFig1() (*Network, error) { return topology.PaperFig1() }

// PaperFig4 reconstructs the Figure 4/5 topology (S, A, B, D, E, G, F, C).
func PaperFig4() (*Network, error) { return topology.PaperFig4() }

// Fig1Nodes gives the symbolic node names of the Figure 1 topology in ID
// order.
func Fig1Nodes() []string { return slices.Clone(topology.Fig1Nodes) }

// Fig4Nodes gives the symbolic node names of the Figure 4/5 topology in ID
// order.
func Fig4Nodes() []string { return slices.Clone(topology.Fig4Nodes) }
