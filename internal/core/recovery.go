package core

import (
	"fmt"
	"math"
	"slices"

	"smrp/internal/failure"
	"smrp/internal/graph"
)

// HealReport describes how a session recovered from one failure event
// (a single failure, or a correlated SRLG batch).
type HealReport struct {
	// Failure is the (first) event that was healed; Failures lists the full
	// correlated batch.
	Failure  failure.Failure
	Failures []failure.Failure
	// Disconnected lists the members the failure cut off, ascending.
	Disconnected []graph.NodeID
	// RecoveryDistance maps each recovered member to the weight of its
	// local detour (the paper's RD_R).
	RecoveryDistance map[graph.NodeID]float64
	// Detours maps each recovered member to its detour path
	// (member → … → reattachment point).
	Detours map[graph.NodeID]graph.Path
	// Unrecovered lists members newly parked by this event: no residual
	// path existed, so they degraded to the parked state (ErrPartitioned)
	// and await re-admission.
	Unrecovered []graph.NodeID
	// Readmitted lists previously-parked members this heal brought back:
	// the event's recovery grafts (or its batch of repairs) made an on-tree
	// node reachable again.
	Readmitted []graph.NodeID
	// Pruned lists stale relays reclaimed after recovery (soft-state expiry).
	Pruned []graph.NodeID
}

// TotalRecoveryDistance sums RD over recovered members.
func (r *HealReport) TotalRecoveryDistance() float64 {
	var total float64
	for _, d := range r.RecoveryDistance {
		total += d
	}
	return total
}

// RepairReport describes a Repair: which components came back and which
// parked members were automatically re-admitted.
type RepairReport struct {
	// Repaired lists the components restored.
	Repaired []failure.Failure
	// Readmitted lists parked members re-admitted by this repair, in
	// re-admission order (ascending).
	Readmitted []graph.NodeID
	// StillParked lists members that remain partitioned afterwards.
	StillParked []graph.NodeID
}

// FlushDead removes all tree state cut off from the source by the mask
// (every maximal dead subtree), returning the members that lost their
// branch. Surviving relays are kept even if childless — their soft state has
// not expired and they remain local-detour targets. The protocol layer calls
// this at failure-detection time and re-grafts members individually.
func (s *Session) FlushDead(mask *graph.Mask) ([]graph.NodeID, error) {
	surviving := failure.SurvivingNodes(s.tree, mask)
	if len(surviving) == 0 {
		return nil, failure.ErrSourceFailed
	}
	disconnected := failure.DisconnectedMembers(s.tree, mask)
	var deadRoots []graph.NodeID
	for _, n := range s.tree.Nodes() {
		if surviving[n] || n == s.tree.Source() {
			continue
		}
		p, ok := s.tree.Parent(n)
		if ok && (p == graph.Invalid || surviving[p]) {
			deadRoots = append(deadRoots, n)
		}
	}
	// Each detached subtree dirties the top-level branch it hung from:
	// ancestors between the source and the detachment point lose N_R, so
	// every surviving node in that branch needs its SHR repaired. The dirty
	// top is captured *before* the detach (afterwards the root may be
	// off-tree); when the dead root is itself a source child the whole
	// branch disappears and no surviving SHR changes (refresh skips the
	// then-off-tree top).
	var dirty []graph.NodeID
	for _, r := range deadRoots {
		if !s.tree.OnTree(r) {
			continue
		}
		dirty = append(dirty, s.tree.TopAncestor(r))
		if err := s.tree.DetachSubtree(r); err != nil {
			return nil, fmt.Errorf("flush dead: %w", err)
		}
	}
	for _, m := range disconnected {
		delete(s.lastUpSHR, m)
	}
	s.shr.refresh(s.tree, dirty...)
	return disconnected, nil
}

// RecoverGraft grafts a local-detour path (reattachment point → … → member)
// produced by failure recovery and restores the session bookkeeping for the
// recovered member.
func (s *Session) RecoverGraft(p graph.Path) error {
	if err := s.tree.Graft(p, true); err != nil {
		return err
	}
	m := p.Last()
	delete(s.parked, m)
	s.shr.refresh(s.tree, s.tree.TopAncestor(m))
	s.recordUpSHR(m)
	s.notifyStrategy()
	return nil
}

// Recover restores the session after the given failure set using the
// configured RecoveryStrategy (SMRP's local detours by default). The
// failures are folded into the session's accumulated mask before recovery
// begins, so overlapping failures compose — every detour avoids *all* failed
// components, not just the newest — and a correlated batch (an SRLG cut)
// never routes a detour over a sibling cut discovered one step later.
//
// With the default strategy, dead tree state below the cut is flushed, then
// each disconnected member reconnects to the nearest unaffected on-tree
// node, nearest member first (each reconnection enlarges the live tree,
// modeling neighbor-assisted recovery). Members with no residual path
// degrade gracefully: they are parked (see Parked/ErrPartitioned) and
// re-admitted automatically by a later Recover or Repair that makes them
// reachable. Surviving relays whose branches died are kept as detour
// targets during recovery and pruned afterwards.
//
// The failed components remain failed: subsequent joins and reshapes treat
// the underlying graph as degraded automatically.
func (s *Session) Recover(fs ...failure.Failure) (*HealReport, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("core: recover: %w: empty failure set", failure.ErrBadSchedule)
	}
	// Reject before mutating: a batch that takes the source down has no
	// recovery (FlushDead would surface ErrSourceFailed), and folding it
	// into the mask first would corrupt the session on a *rejected* request
	// — the caller sees an error, yet every later Join finds the source
	// blocked. Callers that want a source failure to accumulate anyway
	// (hierarchy's domain-down bookkeeping) call ApplyFailure directly.
	if failure.TakesDownNode(fs, s.tree.Source()) {
		return nil, failure.ErrSourceFailed
	}
	s.ApplyFailure(fs...)
	return s.dispatchRecover(fs)
}

// Reconcile re-runs failure recovery against the session's accumulated mask
// without applying new failures. It flushes tree state that is dead under the
// current mask and re-grafts (or parks) the affected members — the repair
// path for a session whose mask changed while recovery was suspended (e.g. a
// recovery domain whose agent was down while further failures accumulated).
// It is a no-op on a healthy session with an intact tree. Like Recover it
// dispatches through the configured RecoveryStrategy (fs = nil).
func (s *Session) Reconcile() (*HealReport, error) {
	return s.dispatchRecover(nil)
}

// reconcile is the shared heal engine: flush dead state under the
// accumulated mask, then reconnect nearest-first.
func (s *Session) reconcile(fs []failure.Failure) (*HealReport, error) {
	mask := s.maskOrNil()
	// Members that failed themselves are flushed with their branches and
	// parked below: they are gone until repaired, then re-admitted like any
	// other parked member. (DisconnectedMembers excludes them by design —
	// they are not *disconnected* — but the degraded-member state machine
	// must still account for them.)
	var selfFailed []graph.NodeID
	if mask != nil {
		for _, m := range s.tree.Members() {
			if mask.NodeBlocked(m) {
				selfFailed = append(selfFailed, m)
			}
		}
	}
	disconnected, err := s.FlushDead(mask)
	if err != nil {
		return nil, err
	}
	if len(selfFailed) > 0 {
		disconnected = append(disconnected, selfFailed...)
		slices.Sort(disconnected)
	}
	rep := &HealReport{
		Failures:         fs,
		Disconnected:     disconnected,
		RecoveryDistance: make(map[graph.NodeID]float64),
		Detours:          make(map[graph.NodeID]graph.Path),
	}
	if len(fs) > 0 {
		rep.Failure = fs[0]
	}

	// Reconnect nearest-first, letting the live tree grow. Previously
	// parked members compete too: a recovery graft may bring an on-tree
	// node back within their reach (automatic re-admission).
	remaining := make(map[graph.NodeID]bool, len(rep.Disconnected)+len(s.parked))
	wasParked := make(map[graph.NodeID]bool, len(s.parked))
	for _, m := range rep.Disconnected {
		if mask.NodeBlocked(m) {
			// The member itself failed: it cannot reconnect while down, so it
			// parks immediately and re-joins when repaired.
			s.park(m)
			rep.Unrecovered = append(rep.Unrecovered, m)
			continue
		}
		remaining[m] = true
	}
	for m := range s.parked {
		if !mask.NodeBlocked(m) && !s.tree.IsMember(m) {
			remaining[m] = true
			wasParked[m] = true
		}
	}
	accept := func(n graph.NodeID) bool {
		return s.tree.OnTree(n) && !mask.NodeBlocked(n)
	}
	var dirty []graph.NodeID
	for len(remaining) > 0 {
		bestD := math.Inf(1)
		var bestM graph.NodeID = graph.Invalid
		var bestPath graph.Path
		for m := range remaining {
			p, d := graph.Path(nil), math.Inf(1)
			var settled int
			_, p, d, settled = s.g.NearestOfCounted(m, mask, accept)
			s.stats.HealSettled += settled
			if p != nil && (d < bestD || (d == bestD && m < bestM)) {
				bestD, bestM, bestPath = d, m, p
			}
		}
		if bestM == graph.Invalid {
			// Everyone left is genuinely partitioned: park the newly
			// disconnected; the already-parked stay parked.
			for m := range remaining {
				if wasParked[m] {
					continue
				}
				s.park(m)
				rep.Unrecovered = append(rep.Unrecovered, m)
			}
			break
		}
		delete(remaining, bestM)
		// bestPath runs member→…→survivor; graft wants survivor→…→member.
		if err := s.tree.Graft(bestPath.Reverse(), true); err != nil {
			return nil, fmt.Errorf("heal: regraft %d: %w", bestM, err)
		}
		if wasParked[bestM] {
			delete(s.parked, bestM)
			s.stats.Readmissions++
			rep.Readmitted = append(rep.Readmitted, bestM)
		}
		dirty = append(dirty, s.tree.TopAncestor(bestM))
		rep.RecoveryDistance[bestM] = bestD
		rep.Detours[bestM] = bestPath
	}
	slices.Sort(rep.Unrecovered)
	slices.Sort(rep.Readmitted)

	// Stale relays are childless non-members (N_R = 0), so pruning them
	// never changes a survivor's SHR — only the regrafted branches are
	// dirty. One batched repair covers every regraft.
	rep.Pruned = s.tree.PruneStale()
	s.shr.refresh(s.tree, dirty...)
	for _, m := range s.tree.Members() {
		if _, ok := s.lastUpSHR[m]; !ok {
			s.recordUpSHR(m)
		}
	}
	s.notifyStrategy()
	return rep, nil
}

// RecoverMember attempts a local-detour re-admission of a single off-tree
// node (typically a parked member): the shortest residual path to the
// nearest live on-tree node is grafted. It returns ErrPartitioned — and
// parks the member — when no residual path exists.
func (s *Session) RecoverMember(m graph.NodeID) (graph.Path, float64, error) {
	if m < 0 || int(m) >= s.g.NumNodes() {
		return nil, 0, fmt.Errorf("recover %d: %w", m, ErrUnknownNode)
	}
	if s.tree.IsMember(m) {
		return nil, 0, fmt.Errorf("recover %d: %w", m, ErrAlreadyMember)
	}
	mask := s.maskOrNil()
	if mask.NodeBlocked(m) {
		return nil, 0, fmt.Errorf("recover %d: %w", m, failure.ErrMemberFailed)
	}
	if s.tree.OnTree(m) {
		if err := s.RecoverGraft(graph.Path{m}); err != nil {
			return nil, 0, err
		}
		return graph.Path{m}, 0, nil
	}
	accept := func(n graph.NodeID) bool {
		return s.tree.OnTree(n) && !mask.NodeBlocked(n)
	}
	node, p, d, settled := s.g.NearestOfCounted(m, mask, accept)
	s.stats.HealSettled += settled
	if node == graph.Invalid {
		s.park(m)
		return nil, 0, fmt.Errorf("recover %d: %w", m, ErrPartitioned)
	}
	if err := s.RecoverGraft(p.Reverse()); err != nil {
		return nil, 0, err
	}
	return p, d, nil
}

// Repair restores failed components and automatically re-admits every
// parked member the repair reconnects, ascending (each re-admission runs the
// full SMRP path selection, so re-admitted members land on low-SHR paths,
// not merely the nearest survivor). Repairing a component that was never
// failed is a no-op.
func (s *Session) Repair(fs ...failure.Failure) (*RepairReport, error) {
	rep := &RepairReport{Repaired: fs}
	if s.failed != nil {
		for _, f := range fs {
			f.RemoveFrom(s.failed)
		}
	}
	for _, m := range s.Parked() {
		if s.maskOrNil().NodeBlocked(m) {
			continue // component still down; stays parked
		}
		delete(s.parked, m) // Join must not see it as parked
		if _, err := s.Join(m); err != nil {
			// Still partitioned (or worse): back to parked.
			s.park(m)
			continue
		}
		s.stats.Readmissions++
		rep.Readmitted = append(rep.Readmitted, m)
	}
	rep.StillParked = s.Parked()
	return rep, nil
}
