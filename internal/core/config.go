// Package core implements SMRP, the Survivable Multicast Routing Protocol of
// Wu & Shin (DSN 2005): multicast tree construction that minimizes path
// sharing (the SHR metric) subject to a bounded end-to-end delay
// ((1+D_thresh)·SPF), plus member join/leave, tree reshaping, and
// local-detour failure recovery.
//
// The package exposes an algorithmic, synchronous Session; the message-level
// protocol driven by the discrete-event simulator lives in
// internal/protocol and delegates its decisions to this package.
package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadConfig is wrapped by every Config.Validate error, so callers can
// match invalid-parameter failures with errors.Is without depending on
// message text.
var ErrBadConfig = errors.New("core: invalid configuration")

// Knowledge selects how a joining member learns about on-tree nodes
// (§3.3.1 of the paper).
type Knowledge int

// Knowledge modes. Enum starts at 1 so the zero value is caught by
// validation.
const (
	// FullTopology assumes every member knows the network topology and can
	// enumerate all candidate paths (the paper's base assumption, §3.2.2).
	FullTopology Knowledge = iota + 1
	// QueryScheme uses the neighbor-relayed query of §3.3.1: each neighbor
	// forwards a query along its unicast shortest path to the source and the
	// first on-tree node hit answers with its SHR. Candidates are partial,
	// so path selection may be suboptimal.
	QueryScheme
)

// String implements fmt.Stringer.
func (k Knowledge) String() string {
	switch k {
	case FullTopology:
		return "full-topology"
	case QueryScheme:
		return "query-scheme"
	default:
		return fmt.Sprintf("Knowledge(%d)", int(k))
	}
}

// TreeStorage selects the session's tree-state backend.
type TreeStorage int

// Tree-storage modes. The zero value (StorageAuto) preserves historical
// behaviour on every pre-existing configuration: topologies below
// SparseNodeThreshold get the dense backend, which is byte-identical to all
// prior releases.
const (
	// StorageAuto picks dense storage below SparseNodeThreshold nodes and
	// sparse storage at or above it.
	StorageAuto TreeStorage = iota
	// StorageDense forces NodeID-indexed arrays: O(topology) standing bytes
	// per session, single-load state access.
	StorageDense
	// StorageSparse forces slots in touch order behind an open-addressed
	// index: O(|tree| + |members|) standing bytes per session, an index
	// probe per state access.
	// Behaviour is pinned bit-identical to dense by the equivalence oracles.
	StorageSparse
)

// SparseNodeThreshold is the StorageAuto cutover: sessions on topologies
// with at least this many nodes default to sparse tree storage. The value
// sits far above every small-scale study topology (so their blessed outputs
// are untouched) and below the megascale tier, where dense per-session
// arrays are what capped the session count.
const SparseNodeThreshold = 32768

// String implements fmt.Stringer.
func (s TreeStorage) String() string {
	switch s {
	case StorageAuto:
		return "auto"
	case StorageDense:
		return "dense"
	case StorageSparse:
		return "sparse"
	default:
		return fmt.Sprintf("TreeStorage(%d)", int(s))
	}
}

// Config parameterizes an SMRP session.
type Config struct {
	// DThresh bounds candidate path length: a candidate is admissible when
	// its end-to-end delay is at most (1+DThresh) times the unicast
	// shortest-path delay between source and the joining member. 0 degrades
	// SMRP to pure SPF joins.
	DThresh float64

	// ReshapeDelta is the Condition-I trigger threshold: a member initiates
	// reshaping once the SHR of its upstream node has grown by more than
	// ReshapeDelta since the member's last (re)selection. <= 0 disables
	// Condition I.
	ReshapeDelta int

	// PeriodicReshape enables Condition II: Session.ReshapeAll re-runs path
	// selection for every member (the protocol layer drives this from a
	// timer).
	PeriodicReshape bool

	// Knowledge selects full-topology or query-scheme candidate discovery.
	Knowledge Knowledge

	// TreeStorage selects the tree-state backend. The zero value
	// (StorageAuto) chooses dense arrays below SparseNodeThreshold nodes
	// and O(|tree|) sparse slots above it; StorageDense/StorageSparse
	// force a backend. Both backends are bit-identical in behaviour — the
	// choice only moves the standing-memory/access-cost tradeoff.
	TreeStorage TreeStorage

	// Strategy selects the failure-recovery implementation. nil (the
	// default) is SMRP's local-detour recovery, unchanged from every prior
	// release; the comparative baselines (MRC backup configurations,
	// Bhosle–Gonzalez precomputed detours) plug in here.
	// A strategy instance is bound to one session: NewSession calls
	// Strategy.Precompute and the session re-invokes it after every tree
	// mutation, so do not share an instance between sessions.
	Strategy RecoveryStrategy
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: D_thresh = 0.3, Condition I with a delta of 2 (the Figure-5
// example triggers on an increase of 2), full topology knowledge.
func DefaultConfig() Config {
	return Config{
		DThresh:         0.3,
		ReshapeDelta:    2,
		PeriodicReshape: true,
		Knowledge:       FullTopology,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	// +Inf is legal and means no bound; NaN would make every comparison with
	// the bound false and send every join to the fastest path.
	if c.DThresh < 0 || math.IsNaN(c.DThresh) {
		return fmt.Errorf("%w: DThresh = %v must be a non-negative number", ErrBadConfig, c.DThresh)
	}
	switch c.Knowledge {
	case FullTopology, QueryScheme:
	default:
		return fmt.Errorf("%w: Knowledge must be FullTopology or QueryScheme", ErrBadConfig)
	}
	switch c.TreeStorage {
	case StorageAuto, StorageDense, StorageSparse:
	default:
		return fmt.Errorf("%w: TreeStorage must be StorageAuto, StorageDense, or StorageSparse", ErrBadConfig)
	}
	return nil
}

// Stats counts protocol work performed by a session; the overhead ablations
// (§3.3.2) compare these across configurations. The session maintains SHR
// eagerly and counts its update messages in SHRUpdates; SHRComputes charges
// what §3.3.2's deferred maintenance would recompute instead, one per node of
// the table each read of a mutated tree would rebuild. A reshape check reads
// the live table, so it is charged for a stale one before it is charged for
// the table of the tree its member has left.
type Stats struct {
	Joins          int // successful member joins
	Leaves         int // successful member departures
	Reshapes       int // path switches actually performed
	ReshapeChecks  int // reshaping evaluations (triggered or periodic)
	SHRUpdates     int // per-node SHR writes that changed a value
	SHRComputes    int // per-node SHR recomputes deferred maintenance would run
	QueryMessages  int // query-scheme messages sent (neighbor relays)
	CandidatesSeen int // total candidates scored during path selections
	Parks          int // members degraded to the parked state (partitioned)
	Readmissions   int // parked members automatically re-admitted

	// ReshapesRefused counts reshapes the selection picked but Tree.Reroute
	// refused. The selection reads the tree as if m's departing relay chain
	// had already left it, so it may route m's new path through one of those
	// relays, which the live tree still holds; the member then stays on its
	// old path and keeps its Condition-I baseline, so the same check fires
	// again on the next join. A known defect, counted until it is fixed.
	ReshapesRefused int

	// StrategyFallbacks counts recoveries where the configured strategy's
	// precomputed answer was missing or invalidated by the accumulated
	// failures and RecoverScaffold's live nearest-survivor search stood in
	// — the strategies study's "table miss" column. Always 0 for the
	// default (SMRP) recovery, which is reactive by design. FallbackSettled
	// tallies the nodes those stand-in searches settled, whether or not they
	// found a survivor: the part of HealSettled a strategy's table did not
	// displace — all of it, for a strategy on RecoverScaffold, where a table
	// hit sweeps nothing.
	StrategyFallbacks int
	FallbackSettled   int

	// BatchJoins counts members admitted through JoinBatch (a subset of
	// Joins). EnumSettled tallies nodes settled by candidate sweeps (the
	// delay-bound-pruned pass of every join and reshape, whose goal-directed
	// order counts a node it settles again after lowering it once more, plus
	// the unbounded second pass of a join that found nothing within the bound)
	// — the settled-node counter is the repository's CI-stable unit of SPF
	// work (wall-clock is noise on shared single-core runners). SelectRescans
	// counts the joins that took that second pass, SelectSourceExits the
	// selections decided at the source: their sweep stopped when the source —
	// within the bound, and the one candidate with SHR 0 — was final, and
	// their share is what EnumSettled per selection has to be read against.
	BatchJoins        int
	EnumSettled       int
	SelectRescans     int
	SelectSourceExits int

	// HealSettled tallies nodes settled by the failure-recovery sweeps of
	// Recover/Reconcile and RecoverScaffold: member-rooted nearest-survivor scans (a
	// scan re-taken to a larger radius counts every node it settles again)
	// and, when a heal reconnects from the tree side, the nodes its distance
	// field hands out (one handed out again at a lower value counts again)
	// plus what each contender's confined sweep settles. It is the
	// per-recovery-event analogue of EnumSettled: the CI-stable measure of how
	// much of the network a recovery touches, which the megascale study
	// compares between the flat and hierarchical architectures.
	HealSettled int

	// FlushVisited tallies the steps recovery spends finding and removing
	// dead tree state: failed components examined, tree hops walked from a
	// cut towards the source, nodes detached, and nodes looked at while
	// pruning stale relays. It is proportional to the accumulated failures
	// and the damage, never to the surviving tree.
	FlushVisited int
}
