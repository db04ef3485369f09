package core

import (
	"cmp"
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
	// Connections holds, index for index with Readmitted, the path each
	// re-admission grafted (merger first, member last; a single node when the
	// member was an on-tree relay).
	Connections []graph.Path
	// StillParked lists members that remain partitioned afterwards.
	StillParked []graph.NodeID
}

// flush removes all tree state cut off from the source by the mask (every
// maximal dead subtree) and returns every member flushed, ascending, those
// the mask blocks included. Surviving relays are kept even if childless —
// their soft state has not expired and they remain local-detour targets
// until endHeal prunes them. Its cost follows the cut, not the tree: the dead
// subtrees are found from the mask (failure.DeadRoots), the members come back
// from the detach that removes them, and the detach points are kept for
// endHeal to prune from (Stats.FlushVisited counts the steps).
func (s *Session) flush(mask *graph.Mask) ([]graph.NodeID, error) {
	var flushed []graph.NodeID
	onTree := s.tree.NumNodes()
	cand, visited, err := failure.DeadRoots(s.tree, mask, s.cand, func(root graph.NodeID) (err error) {
		p, _ := s.tree.Parent(root)
		s.stale = append(s.stale, p)
		below, _ := s.tree.MemberCount(root)
		if flushed, err = s.tree.DetachSubtree(root, slices.Grow(flushed, below)); err != nil {
			return fmt.Errorf("flush dead: %w", err)
		}
		return nil
	})
	s.cand = cand
	if err != nil {
		return nil, err
	}
	s.stats.FlushVisited += visited + onTree - s.tree.NumNodes()
	slices.Sort(flushed)
	for _, m := range flushed {
		if !mask.NodeBlocked(m) {
			s.tree.ClearBaseline(m)
		}
	}
	// Each detach marked the branch it hung from, whose survivors above it
	// lost N_R; a dead source child takes its whole branch and marks none.
	s.repairSHR()
	return flushed, nil
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
	// recovery (the flush would surface ErrSourceFailed), and folding it
	// into the mask first would corrupt the session on a *rejected* request
	// — the caller sees an error, yet every later Join finds the source
	// blocked. Callers that want a source failure to accumulate anyway
	// (hierarchy's domain-down bookkeeping) call ApplyFailure directly.
	if failure.TakesDownNode(fs, s.tree.Source()) {
		return nil, failure.ErrSourceFailed
	}
	// So is a batch that names a node outside the graph (the mask would size
	// its words by the ID) or a link the graph lacks (it would leave the
	// session degraded over nothing).
	if err := failure.Check(fs, s.g); err != nil {
		return nil, fmt.Errorf("core: recover: %w", err)
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

// heal is the state one recovery pass carries from its prologue (beginHeal)
// through its reconnect loop to its epilogue (endHeal). The built-in engine
// (reconcile) and the baselines' skeleton (RecoverScaffold) differ only in
// the loop between the two. A session has one, and the next pass reuses its
// storage.
type heal struct {
	rep  *HealReport
	mask *graph.Mask
	// todo lists the members to reconnect, ascending: the newly disconnected
	// that did not fail themselves, and the previously parked that are up —
	// a recovery graft may bring an on-tree node back within their reach
	// (automatic re-admission). wasParked marks the latter; it stays nil
	// until somebody is parked.
	todo      []graph.NodeID
	wasParked map[graph.NodeID]bool
	// regrafted lists the members reconnected so far.
	regrafted []graph.NodeID
}

// beginHeal flushes the tree state dead under the accumulated mask, opens the
// report and works out who has to reconnect.
func (s *Session) beginHeal(fs []failure.Failure) (*heal, error) {
	mask := s.maskOrNil()
	// The flush hands back every member it removed. Members that failed
	// themselves are among them: flushed with their branches and parked
	// below, they are gone until repaired, then re-admitted like any other
	// parked member. (They did not lose their branch to another node's
	// failure, but the degraded-member state machine must still account for
	// them.)
	flushed, err := s.flush(mask)
	if err != nil {
		return nil, err
	}
	h := &s.heal
	clear(h.wasParked)
	*h = heal{
		rep: &HealReport{
			Failures:         fs,
			Disconnected:     flushed,
			RecoveryDistance: make(map[graph.NodeID]float64, len(flushed)),
			Detours:          make(map[graph.NodeID]graph.Path, len(flushed)),
		},
		mask:      mask,
		todo:      h.todo[:0],
		wasParked: h.wasParked,
		regrafted: h.regrafted[:0],
	}
	if len(fs) > 0 {
		h.rep.Failure = fs[0]
	}
	for m := range s.parked {
		if !mask.NodeBlocked(m) && !s.tree.IsMember(m) {
			h.todo = append(h.todo, m)
			if h.wasParked == nil {
				h.wasParked = make(map[graph.NodeID]bool)
			}
			h.wasParked[m] = true
		}
	}
	for _, m := range flushed {
		if mask.NodeBlocked(m) {
			// The member itself failed: it cannot reconnect while down, so it
			// parks immediately and re-joins when repaired.
			s.park(m)
			h.rep.Unrecovered = append(h.rep.Unrecovered, m)
			continue
		}
		h.todo = append(h.todo, m)
	}
	slices.Sort(h.todo)
	return h, nil
}

// regraft reconnects member m along detour (m→…→survivor, rd its weight);
// graft is the same path in the survivor→…→m orientation Tree.Graft takes.
func (s *Session) regraft(h *heal, m graph.NodeID, detour, graft graph.Path, rd float64) error {
	if err := s.tree.Graft(graft, true); err != nil {
		return fmt.Errorf("heal: regraft %d: %w", m, err)
	}
	if h.wasParked[m] {
		delete(s.parked, m)
		s.stats.Readmissions++
		h.rep.Readmitted = append(h.rep.Readmitted, m)
	}
	h.regrafted = append(h.regrafted, m)
	h.rep.RecoveryDistance[m] = rd
	h.rep.Detours[m] = detour
	return nil
}

// unrecovered parks a member the reconnect loop found no residual path for;
// one that was parked already stays so without being reported again.
func (s *Session) unrecovered(h *heal, m graph.NodeID) {
	if h.wasParked[m] {
		return
	}
	s.park(m)
	h.rep.Unrecovered = append(h.rep.Unrecovered, m)
}

// endHeal closes a recovery pass: stale relays go, SHR is repaired once for
// every regrafted branch, Condition-I baselines are taken for the regrafted.
func (s *Session) endHeal(h *heal) *HealReport {
	rep := h.rep
	h.rep = nil // the caller's from here on; the session keeps only the buffers
	slices.Sort(rep.Unrecovered)
	slices.Sort(rep.Readmitted)
	// A relay goes stale only where a flush took its last child away, and
	// every heal ends here: pruning upward from the detach points recorded
	// since the last one removes what a sweep of the tree would. Stale relays
	// are childless non-members (N_R = 0), so pruning them never changes a
	// survivor's SHR — only the regrafted branches are dirty. One batched
	// repair covers every regraft.
	rep.Pruned = s.tree.PruneFrom(s.stale)
	s.stats.FlushVisited += len(s.stale) + len(rep.Pruned)
	s.stale = s.stale[:0]
	s.repairSHR()
	// The regrafted are the members without a baseline: the flush (or the
	// park before it) dropped theirs, everybody else kept it.
	for _, m := range h.regrafted {
		s.recordUpSHR(m)
	}
	s.notifyStrategy()
	return rep
}

// reconnecting is one member's state inside reconnect.
type reconnecting struct {
	m graph.NodeID
	// done: grafted, or proven unreachable.
	done bool
	// Of the member-side engine. scan is the member's nearest-survivor sweep
	// as far as it has been taken; every node within radius of m is in it (-1
	// before the first sweep). cur is the earliest position of scan that is
	// on-tree now — the member's reattachment point if it reconnects next — or
	// -1 while no node of scan is.
	scan   graph.NearestScan
	radius float64
	cur    int
	// Of the tree-side engine: the field value the member last contended at,
	// -1 before it has.
	at float64
}

// scanRef is one entry of the member-side engine's node → (member, position)
// index: a singly linked list per node, threaded through one slice. next, like
// the list heads, is 1 + the index of the following entry, 0 at the end.
type scanRef struct {
	member, pos, next int32
}

// reconcile is the built-in heal engine: flush dead state under the
// accumulated mask, then reconnect nearest-first, letting the live tree grow.
func (s *Session) reconcile(fs []failure.Failure) (*HealReport, error) {
	h, err := s.beginHeal(fs)
	if err != nil {
		return nil, err
	}
	if err := s.reconnect(h); err != nil {
		return nil, err
	}
	return s.endHeal(h), nil
}

// reconnect regrafts or parks everybody in h.todo. Each round grafts the
// member nearest to the tree as it stands, ties to the smaller ID, and the
// tree grows by the graft. Two engines find that member, to the same bits
// (DESIGN.md §11.6; TestReconcileMatchesRoundwiseReference holds both to the
// round-wise re-sweep they replaced), and which one runs follows from the two
// counts the flush has just settled. Sweeping from the members costs the i-th
// of k a ball of about N/(|T|+i) nodes, N·ln(1 + k/|T|) in all; sweeping from
// the tree costs one pass over the members' surroundings whatever k is, but a
// pass that pays for every arc of every row it pops and comes round again
// beside every graft. More than twice as many members as surviving tree nodes
// is where the first passes the second: a lone member, a pair below the
// source's only link, a cut that leaves more tree than it took members all
// stay on the member side.
func (s *Session) reconnect(h *heal) error {
	if len(h.todo) == 0 {
		return nil
	}
	a := s.newArena()
	defer a.release()
	todo := a.reconnecting(h.todo)
	if len(todo) > 2*s.tree.NumNodes() {
		return s.reconnectFromTree(h, a, todo)
	}
	return s.reconnectFromMembers(h, a, todo)
}

// reconnectFromMembers is the member-side engine: one recorded scan per
// member. A member's sweep — settle order, distances, parents — depends on the
// graph, the mask and the member alone; the tree decides only where it stops,
// and through one heal the mask stands still and the tree only grows. So every
// member keeps the record of its sweep, its answer in any later round is the
// earliest recorded node that is on-tree by then, and a graft updates the
// answers it changes through an index from node to the records that hold it. A
// sweep is taken only as far as the round's best distance (a member farther
// out can neither win nor tie) and re-taken, to at least twice its radius,
// when a later round's best lies beyond it.
func (s *Session) reconnectFromMembers(h *heal, a *arena, todo []reconnecting) error {
	mask, accept := h.mask, s.survivor(h.mask)
	// A lone member is one unbounded sweep and one graft; nobody else's
	// answer can change, so nothing is indexed.
	var head map[graph.NodeID]int32
	if len(todo) > 1 {
		if a.head == nil {
			a.head = make(map[graph.NodeID]int32)
		}
		clear(a.head)
		head = a.head
	}
	a.refs = a.refs[:0]
	for {
		// todo ascends, so strict comparison leaves ties with the smaller ID.
		best, bestD := -1, math.Inf(1)
		for i := range todo {
			if t := &todo[i]; !t.done && t.cur >= 0 && t.scan[t.cur].Dist < bestD {
				best, bestD = i, t.scan[t.cur].Dist
			}
		}
		for i := range todo {
			t := &todo[i]
			if t.done || t.cur >= 0 || t.radius >= bestD {
				continue
			}
			budget := max(bestD, 2*t.radius)
			known := len(t.scan)
			if known > 0 {
				s.healTally.rescans++
			}
			var hit, exhausted bool
			t.scan, hit, exhausted = s.g.ScanNearest(t.scan, t.m, mask, accept, budget)
			s.stats.HealSettled += len(t.scan)
			if head != nil {
				for pos := known; pos < len(t.scan); pos++ {
					n := t.scan[pos].Node
					a.refs = append(a.refs, scanRef{member: int32(i), pos: int32(pos), next: head[n]})
					head[n] = int32(len(a.refs))
				}
			}
			switch {
			case hit:
				t.cur = len(t.scan) - 1
				if d := t.scan[t.cur].Dist; d < bestD || (d == bestD && i < best) {
					best, bestD = i, d
				}
			case exhausted:
				// Its whole component holds no on-tree node, and no graft
				// can enter it: genuinely partitioned.
				t.done = true
				s.unrecovered(h, t.m)
			default:
				t.radius = budget
			}
		}
		if best < 0 {
			// Nobody was resolved, so every sweep above ran unbounded and
			// everybody left has been parked.
			return nil
		}
		t := &todo[best]
		t.done = true
		a.graft = t.scan.AppendPathFrom(a.graft[:0], t.cur)
		if err := s.regraft(h, t.m, a.graft.Reverse(), a.graft, bestD); err != nil {
			return err
		}
		for _, n := range a.graft {
			for i := head[n]; i > 0; i = a.refs[i-1].next {
				r := a.refs[i-1]
				if o := &todo[r.member]; o.cur < 0 || int(r.pos) < o.cur {
					o.cur = int(r.pos)
				}
			}
		}
	}
}

// reconnectFromTree is the tree-side engine: one distance field grown from the
// surviving tree (graph.Field) orders and confines every regraft. The field
// reaches the disconnected members nearest first, and when a graft puts new
// nodes on the tree they are seeded at 0 and the field corrects itself from
// there, so its order stays the order of the rounds. What it cannot give is
// the blessed RecoveryDistance: it sums a path's weights tree-outward, the
// reports carry the member-outward sum, and the two floats differ in their last
// bits. So the field only nominates. The first pending member it hands out, at
// D, and every other one within D·(1+TieSlack) are the round's contenders;
// each runs its own sweep, confined by the field to the neighbourhood of its
// shortest paths (Sweep.NearestWithin: same survivor, path and distance bits
// as the unconfined sweep); the least (distance, ID) is grafted and the losers
// go back into the field's queue. A member farther out than the slack cannot
// win or tie the round; one the field never reaches shares a component with
// no on-tree node, and no graft can enter it.
func (s *Session) reconnectFromTree(h *heal, a *arena, todo []reconnecting) error {
	accept := s.survivor(h.mask)
	f := s.g.NewField(h.mask)
	defer func() {
		s.stats.HealSettled += f.Pops()
		f.Release()
	}()
	a.members = s.tree.AppendNodes(a.members[:0])
	for _, n := range a.members {
		f.Seed(n)
	}
	s.healTally.fieldEvents++
	for {
		cont, limit := a.contenders[:0], math.Inf(1)
		for {
			n, d, ok := f.Next(limit)
			if !ok {
				break
			}
			i, found := slices.BinarySearchFunc(todo, n, func(t reconnecting, n graph.NodeID) int { return cmp.Compare(t.m, n) })
			if !found || todo[i].done {
				continue
			}
			if len(cont) == 0 {
				limit = d * (1 + graph.TieSlack)
			}
			cont = append(cont, int32(i))
			if d < todo[i].at {
				s.healTally.fell++
			}
			todo[i].at = d
		}
		a.contenders = cont
		if len(cont) == 0 {
			for i := range todo {
				if !todo[i].done {
					s.unrecovered(h, todo[i].m)
				}
			}
			return nil
		}
		if len(cont) > 1 {
			s.healTally.contended++
		}
		best, bestD := int32(-1), math.Inf(1)
		for _, i := range cont {
			m := todo[i].m
			node := a.sw.NearestWithin(f, m, accept)
			s.stats.HealSettled += a.sw.SettledCount()
			if node == graph.Invalid {
				return fmt.Errorf("heal: reconnect %d: the tree is %v away and its sweep found none", m, f.Dist(m))
			}
			if d := a.sw.Dist(node); d < bestD || (d == bestD && i < best) {
				best, bestD = i, d
				a.graft = a.sw.AppendPathFrom(a.graft[:0], node)
			}
		}
		todo[best].done = true
		if err := s.regraft(h, todo[best].m, a.graft.Reverse(), a.graft, bestD); err != nil {
			return err
		}
		for _, n := range a.graft[1:] { // graft[0] was on the tree already
			f.Seed(n)
		}
		for _, i := range cont {
			if i != best {
				f.Requeue(todo[i].m)
			}
		}
	}
}

// survivor is the accept predicate of every recovery search under mask: an
// on-tree node that is up.
func (s *Session) survivor(mask *graph.Mask) func(graph.NodeID) bool {
	return func(n graph.NodeID) bool {
		return s.tree.OnTree(n) && !mask.NodeBlocked(n)
	}
}

// nearestSurvivor is the one-shot search for m's local detour: the shortest
// residual path m → … → nearest survivor and its weight; ok is false when
// m's component holds none.
func (s *Session) nearestSurvivor(m graph.NodeID, mask *graph.Mask) (p graph.Path, d float64, ok bool) {
	node, p, d, settled := s.g.NearestOfCounted(m, mask, s.survivor(mask))
	s.stats.HealSettled += settled
	return p, d, node != graph.Invalid
}

// Repair restores failed components and automatically re-admits every
// parked member the repair reconnects, ascending (each re-admission runs the
// full SMRP path selection, so re-admitted members land on low-SHR paths,
// not merely the nearest survivor). Repairing a component that was never
// failed is a no-op; naming a node or link the graph lacks is refused before
// anything changes, as Recover refuses it.
func (s *Session) Repair(fs ...failure.Failure) (*RepairReport, error) {
	if err := failure.Check(fs, s.g); err != nil {
		return nil, fmt.Errorf("core: repair: %w", err)
	}
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
		// A member Join cannot reconnect stays parked, and park does not
		// count it again.
		res, err := s.Join(m)
		if err != nil {
			continue
		}
		s.stats.Readmissions++
		rep.Readmitted = append(rep.Readmitted, m)
		rep.Connections = append(rep.Connections, res.Connection)
	}
	rep.StillParked = s.Parked()
	return rep, nil
}
