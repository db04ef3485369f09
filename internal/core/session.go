package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// Sentinel errors returned by Session operations. All are matchable with
// errors.Is through any wrapping the session applies.
var (
	// ErrAlreadyMember is returned when a join names an existing member.
	ErrAlreadyMember = errors.New("core: node is already a member")
	// ErrNoPath is returned when a joining node cannot reach the tree.
	ErrNoPath = errors.New("core: no path connects the node to the tree")
	// ErrNoCandidate is returned when candidate enumeration finds no
	// admissible connection path for a joiner (distinct from ErrNoPath: the
	// node may be reachable but every candidate is excluded by the mask).
	ErrNoCandidate = fmt.Errorf("%w: no candidate connection", ErrNoPath)
	// ErrPartitioned is returned when a member is genuinely cut off from the
	// source by the accumulated failures: no residual path exists. The
	// member is parked (see Parked) and re-admitted automatically once a
	// Repair — or a later recovery graft — makes it reachable again.
	ErrPartitioned = errors.New("core: member is partitioned from the source")
	// ErrNotMember aliases the tree-layer sentinel so callers can match
	// membership errors at this layer.
	ErrNotMember = multicast.ErrNotMember
	// ErrUnknownNode aliases the graph-layer sentinel for nodes outside the
	// session's topology.
	ErrUnknownNode = graph.ErrUnknownNode
)

// Session is a synchronous SMRP multicast session: a tree under
// construction (which keeps SHR beside N_R) plus the reshaping state the
// protocol maintains. It is the algorithmic heart of the reproduction; the
// message-level protocol in internal/protocol drives the same logic through
// simulated packets.
//
// Session is not safe for concurrent use.
type Session struct {
	cfg  Config
	g    *graph.Graph
	tree *multicast.Tree
	// shrSeen is 1 + the tree epoch of the last SHR read (see shrTree).
	shrSeen uint64

	// failed accumulates every persistent failure applied to the session
	// (ApplyFailure/Recover); nil while the network is healthy. Path selection,
	// reshaping, and recovery all avoid the accumulated mask.
	failed *graph.Mask
	// parked holds members degraded out of the tree because no residual
	// path to the source existed under the accumulated failures. They are
	// re-admitted automatically by Repair or by a later Recover whose grafts
	// bring an on-tree node back within reach.
	parked map[graph.NodeID]bool
	// Buffers recovery reuses from one event to the next: the flush's
	// candidate dead roots and the parent of every subtree detached since
	// endHeal last pruned. heal is the recovery pass in progress, or the last
	// one's storage.
	cand, stale []graph.NodeID
	heal        heal

	stats Stats
	// healTally counts what only the tests read, which must show each path of
	// reconnect ran: member-side sweeps re-taken to a larger radius; heals that
	// went to the tree-side engine, its rounds with more than one contender,
	// and its contenders handed out again at a lower field value.
	healTally struct{ rescans, fieldEvents, contended, fell int }
}

// NewSession creates an SMRP session on g rooted at source.
func NewSession(g *graph.Graph, source graph.NodeID, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	newTree := multicast.New
	if cfg.TreeStorage == StorageSparse ||
		(cfg.TreeStorage == StorageAuto && g.NumNodes() >= SparseNodeThreshold) {
		newTree = multicast.NewSparse
	}
	tree, err := newTree(g, source)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, g: g, tree: tree}
	if cfg.Strategy != nil {
		if err := cfg.Strategy.Precompute(s); err != nil {
			return nil, fmt.Errorf("core: strategy precompute: %w", err)
		}
	}
	return s, nil
}

// Tree returns the session's multicast tree. Callers must not mutate it
// directly; use Join/Leave/Reshape.
func (s *Session) Tree() *multicast.Tree { return s.tree }

// Graph returns the graph the session routes over (for a domain sub-session,
// the view of the domain it was built on). Callers must not mutate it.
func (s *Session) Graph() *graph.Graph { return s.g }

// Stats returns a copy of the session's work counters.
func (s *Session) Stats() Stats { return s.stats }

// SHRSnapshot returns SHR values for all on-tree nodes.
func (s *Session) SHRSnapshot() map[graph.NodeID]int {
	t := s.shrTree()
	out := make(map[graph.NodeID]int, t.NumNodes())
	for _, n := range t.Nodes() {
		out[n] = t.SHR(n)
	}
	return out
}

// JoinResult describes the outcome of a member join.
type JoinResult struct {
	Member graph.NodeID
	// Merger is the on-tree node the new path merged at.
	Merger graph.NodeID
	// Connection is the newly grafted path (Merger first, Member last);
	// a single-node path means the member was already an on-tree relay.
	Connection graph.Path
	// Delay is the member's end-to-end delay on the tree after joining.
	Delay float64
	// SPFDelay is the unicast shortest-path delay from the source.
	SPFDelay float64
	// MergerSHR is SHR(S, Merger) at selection time.
	MergerSHR int
	// WithinBound reports whether the selected path met the
	// (1+DThresh)·SPF bound (false only in the no-feasible-candidate
	// fallback).
	WithinBound bool
	// Reshaped lists members that switched paths due to Condition I
	// triggers caused by this join.
	Reshaped []graph.NodeID
}

// Join admits nr into the session following the paper's Path Selection
// Criterion, grafts the chosen path, and then evaluates Condition-I
// reshaping triggers. It fails if nr is already a member or cannot reach the
// tree.
func (s *Session) Join(nr graph.NodeID) (*JoinResult, error) {
	a := s.newArena()
	defer a.release()
	return s.join(nr, a)
}

// join is the shared admission engine behind Join and JoinBatch, working in
// the caller's arena. A batch lends one arena for all its joins, a
// value-identical substitution for a fresh one (see JoinBatch), so the two
// paths produce bit-identical sessions.
func (s *Session) join(nr graph.NodeID, a *arena) (*JoinResult, error) {
	if nr < 0 || int(nr) >= s.g.NumNodes() {
		return nil, fmt.Errorf("join %d: %w", nr, ErrUnknownNode)
	}
	if s.tree.IsMember(nr) {
		return nil, fmt.Errorf("join %d: %w", nr, ErrAlreadyMember)
	}
	mask := s.maskOrNil()
	if mask.NodeBlocked(nr) {
		return nil, fmt.Errorf("join %d: %w", nr, failure.ErrMemberFailed)
	}

	spfDelay, lower := s.sourceSPF(a, nr)
	if math.IsInf(spfDelay, 1) && nr != s.tree.Source() {
		if mask != nil {
			// Degrade gracefully: the joiner is alive but the accumulated
			// failures cut it off. Park it for automatic re-admission.
			s.park(nr)
			return nil, fmt.Errorf("join %d: %w", nr, ErrPartitioned)
		}
		return nil, fmt.Errorf("join %d: %w", nr, ErrNoPath)
	}

	res := &JoinResult{Member: nr, SPFDelay: spfDelay, WithinBound: true}

	if s.tree.OnTree(nr) {
		// An on-tree relay (or the source) becomes a receiver in place.
		if err := s.tree.Graft(graph.Path{nr}, true); err != nil {
			return nil, err
		}
		res.Merger = nr
		res.Connection = graph.Path{nr}
	} else {
		a.view.whole(s.shrTree())
		cand, within, ok := s.selectPath(a, nr, mask, lower, spfDelay, true)
		if !ok {
			if mask != nil {
				s.park(nr)
				return nil, fmt.Errorf("join %d: %w", nr, ErrPartitioned)
			}
			return nil, fmt.Errorf("join %d: %w", nr, ErrNoCandidate)
		}
		if err := s.tree.Graft(cand.Connection, true); err != nil {
			return nil, fmt.Errorf("join %d: graft: %w", nr, err)
		}
		res.Merger = cand.Merger
		res.Connection = slices.Clone(cand.Connection) // the sweep's winner lives in the arena
		res.MergerSHR = cand.SHR
		res.WithinBound = within
	}

	delete(s.parked, nr)
	s.stats.Joins++
	s.repairSHR()
	s.recordUpSHR(nr)

	if s.cfg.ReshapeDelta > 0 {
		res.Reshaped = s.checkConditionI(a, nr)
	}
	if d, err := s.tree.DelayTo(nr); err == nil {
		res.Delay = d
	}
	s.notifyStrategy()
	return res, nil
}

// sourceSPF returns nr's SPF delay from the source under the accumulated
// failure mask (Unreachable when cut off) and the lower bound the candidate
// sweep prunes with (see selectBySweep): SPF distances from the source on the
// *unmasked* graph. Masked distances would prune harder, but the tree keeps
// its dead edges between ApplyFailure and Recover, and a node's delay along
// them can undercut its masked SPF distance. Healthy, the delay is read off
// the source's cached tree; degraded, it is a point query on a's sweep
// guided by that tree (Sweep.RunFrom), equal to the masked tree's Dist[nr].
func (s *Session) sourceSPF(a *arena, nr graph.NodeID) (spfDelay float64, lower []float64) {
	src, mask := s.tree.Source(), s.maskOrNil()
	lower = s.g.Dijkstra(src, nil).Dist
	if mask == nil {
		return lower[nr], lower
	}
	a.sw.RunFrom(src, nr, mask)
	return a.sw.Dist(nr), lower
}

// selectPath is path selection for joiner against the tree a's view stands for
// — the session's own for a join, for a reshape the one the member's subtree
// has left — under mask: the candidates the configured knowledge mode can see, put
// to the Path Selection Criterion with bound (1+DThresh)·spfDelay. When
// nothing is within the bound a caller that must land (a join; a reshape stays
// put) gets the fastest candidate there is, within = false: the query scheme's
// replies are judged again with the bound lifted, full knowledge sweeps again,
// unbounded, on the arena's same sweep. ok is false when there is no
// candidate at all.
func (s *Session) selectPath(a *arena, joiner graph.NodeID, mask *graph.Mask, lower []float64, spfDelay float64, mustLand bool) (best Candidate, within, ok bool) {
	var replies []Candidate
	query := s.cfg.Knowledge == QueryScheme
	if query {
		replies = enumerateQuery(&a.view, joiner, mask, &s.stats)
		s.stats.CandidatesSeen += len(replies)
	}
	pass := func(bound float64, delayFirst bool) (Candidate, bool) {
		if query {
			return selectAmong(replies, bound, delayFirst)
		}
		return selectBySweep(a, joiner, mask, lower, bound, delayFirst, &s.stats)
	}
	if best, ok = pass((1+s.cfg.DThresh)*spfDelay, false); ok || !mustLand {
		return best, ok, ok
	}
	s.stats.SelectRescans++
	best, ok = pass(math.Inf(1), true)
	return best, false, ok
}

// maskOrNil returns the accumulated failure mask, or nil while healthy (the
// nil fast path keeps the healthy hot path and its SPF-cache keys identical
// to a mask-free session).
func (s *Session) maskOrNil() *graph.Mask {
	if s.failed.IsEmpty() {
		return nil
	}
	return s.failed
}

// park records m as degraded out of the session (no residual path).
func (s *Session) park(m graph.NodeID) {
	if s.parked == nil {
		s.parked = make(map[graph.NodeID]bool)
	}
	if !s.parked[m] {
		s.parked[m] = true
		s.stats.Parks++
	}
	s.tree.ClearBaseline(m)
}

// Parked returns the members currently degraded out of the tree because the
// accumulated failures partition them from the source, in ascending order.
func (s *Session) Parked() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.parked))
	for m := range s.parked {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// NumParked reports how many members are currently parked, without the
// allocation Parked pays to build its sorted slice.
func (s *Session) NumParked() int { return len(s.parked) }

// IsParked reports whether m is currently parked.
func (s *Session) IsParked(m graph.NodeID) bool { return s.parked[m] }

// FailedMask returns a copy of the accumulated failure mask (empty while
// healthy).
func (s *Session) FailedMask() *graph.Mask { return s.failed.Clone() }

// SourceFailed reports whether the accumulated failures include the
// session's own source: nothing can be recovered until it is repaired.
func (s *Session) SourceFailed() bool { return s.failed.NodeBlocked(s.tree.Source()) }

// ApplyFailure folds persistent failures into the session's accumulated
// mask without healing. Recover applies its failures itself; use this when the
// protocol layer detects a failure before recovery begins. Every node and
// link the failures name must be in the session's graph (the mask is indexed
// by node ID); callers holding failures from outside check them with
// failure.Check first, as Recover does.
func (s *Session) ApplyFailure(fs ...failure.Failure) {
	if len(fs) == 0 {
		return
	}
	if s.failed == nil {
		// Sized for the graph: a later cut never regrows it.
		s.failed = graph.NewMaskWithCapacity(s.g.NumNodes())
	}
	for _, f := range fs {
		f.ApplyTo(s.failed)
	}
}

// Leave removes member m and prunes its unused branch. A parked member has
// no branch: leaving withdraws its standing request for re-admission.
func (s *Session) Leave(m graph.NodeID) error {
	if m < 0 || int(m) >= s.g.NumNodes() {
		return fmt.Errorf("leave %d: %w", m, ErrUnknownNode)
	}
	if s.parked[m] {
		delete(s.parked, m)
		s.stats.Leaves++
		return nil
	}
	if err := s.tree.Leave(m); err != nil {
		return err
	}
	s.tree.ClearBaseline(m)
	s.stats.Leaves++
	s.repairSHR()
	s.notifyStrategy()
	return nil
}

// recordUpSHR stores SHR(S, parent(m)) as m's Condition-I baseline (§3.2.3):
// SHR^old_{S,Ru} as of m's last path (re)selection, kept in the tree's
// baseline column and cleared wherever m leaves the tree.
func (s *Session) recordUpSHR(m graph.NodeID) {
	p, ok := s.tree.Parent(m)
	if !ok || p == graph.Invalid {
		s.tree.SetBaseline(m, 0)
		return
	}
	s.tree.SetBaseline(m, s.shrAt(p))
}

// checkConditionI scans members (except the one that just joined) for
// Condition-I triggers and reshapes those that fire. A single pass is made
// per join — reshaping refreshes baselines, so cascades settle across
// subsequent joins rather than looping here.
func (s *Session) checkConditionI(a *arena, justJoined graph.NodeID) []graph.NodeID {
	var reshaped []graph.NodeID
	a.members = s.tree.AppendMembers(a.members[:0])
	for _, m := range a.members {
		if m == justJoined {
			continue
		}
		p, ok := s.tree.Parent(m)
		if !ok || p == graph.Invalid {
			continue
		}
		old, _ := s.tree.Baseline(m)
		if s.shrAt(p)-old < s.cfg.ReshapeDelta {
			continue
		}
		s.stats.ReshapeChecks++
		moved, err := s.reshapeMember(a, m)
		if err != nil {
			continue // a failed reshape leaves the member on its old path
		}
		if moved {
			reshaped = append(reshaped, m)
		} else {
			// Triggered but current path is still best: reset the baseline
			// so the same growth does not re-trigger immediately.
			s.recordUpSHR(m)
		}
	}
	slices.Sort(reshaped)
	return reshaped
}

// ReshapeAll implements Condition II (§3.2.3): every member re-runs path
// selection as if it had just joined (the protocol layer drives this from a
// periodic timer). It returns the members that actually switched paths.
func (s *Session) ReshapeAll() []graph.NodeID {
	if !s.cfg.PeriodicReshape {
		return nil
	}
	a := s.newArena()
	defer a.release()
	var reshaped []graph.NodeID
	a.members = s.tree.AppendMembers(a.members[:0])
	for _, m := range a.members {
		s.stats.ReshapeChecks++
		moved, err := s.reshapeMember(a, m)
		if err != nil {
			continue
		}
		if moved {
			reshaped = append(reshaped, m)
		}
	}
	return reshaped
}

// reshapeMember evaluates a new path for member m per §3.2.3 and switches if
// the new path is strictly better. The evaluation reads the tree as if m's
// subtree had left it (treeView.without), so SHR values are adjusted for m's
// own contribution before comparison (the paper's "should be adjusted" note).
// It works in the caller's arena and reports whether a switch happened.
func (s *Session) reshapeMember(a *arena, m graph.NodeID) (bool, error) {
	if !s.tree.OnTree(m) {
		return false, fmt.Errorf("reshape %d: %w", m, multicast.ErrNotOnTree)
	}
	if m == s.tree.Source() {
		return false, nil
	}
	if parent, _ := s.tree.Parent(m); parent == graph.Invalid {
		return false, nil
	}

	// The current attachment, on the tree without m's subtree: the deepest
	// ancestor of m that survives m's departure is the current merger.
	v := &a.view
	curMerger := v.without(s.shrTree(), m, s.maskOrNil())
	s.stats.SHRComputes += v.numNodes() // deferred maintenance computes the table of the tree m has left

	// New-path candidates must avoid m's own subtree (cycle prevention; m
	// itself is the joiner, not an obstacle) and every failed component.
	spfDelay, lower := s.sourceSPF(a, m)
	best, _, ok := s.selectPath(a, m, v.avoid, lower, spfDelay, false)
	curSHR := v.shrAt(curMerger)
	v.restore()
	if !ok {
		return false, nil // no admissible alternative; stay put
	}
	curDelay, err := s.tree.DelayTo(m)
	if err != nil {
		return false, err
	}

	improves := best.SHR < curSHR ||
		(best.SHR == curSHR && best.TotalDelay < curDelay-delayEps)
	if !improves {
		return false, nil
	}
	if err := s.tree.Reroute(m, best.Connection); err != nil {
		s.stats.ReshapesRefused++
		return false, fmt.Errorf("reshape %d: %w", m, err)
	}
	s.stats.Reshapes++
	s.repairSHR()
	s.recordUpSHR(m)
	s.notifyStrategy()
	return true, nil
}
