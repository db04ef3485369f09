package core

import (
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// RecoveryStrategy is the pluggable restoration seam: it proposes the detours
// a session reconnects members along after persistent failures, and the
// session does the rest (recoverProposed). SMRP's local-detour recovery (the
// paper's protocol) is what a session without one runs; the
// comparative-testbed baselines — MRC backup routing configurations
// (internal/mrc) and Bhosle–Gonzalez precomputed detours (internal/detour) —
// plug in through Config.Strategy.
//
// A strategy instance is bound to exactly one session: Precompute(s) binds
// and (re)builds any precomputed state, and the session re-invokes it after
// every tree mutation (join, leave, recovery graft), so implementations must
// make it idempotent — memoize against Tree.Epoch() (or a build flag for
// topology-only state) and return fast when nothing changed.
type RecoveryStrategy interface {
	// Precompute binds the strategy to s and builds (or incrementally
	// refreshes) its precomputed recovery state. The session calls it at
	// construction and after every tree mutation; it must be idempotent.
	Precompute(s *Session) error
	// Propose offers disconnected member m's candidate detours, each a path
	// m → … → survivor, best first, until offer accepts one: the first
	// that starts at m and reaches a live on-tree node over live
	// components. fs is the batch being recovered from, already folded
	// into the accumulated mask (nil on a Reconcile).
	Propose(fs []failure.Failure, m graph.NodeID, offer func(graph.Path) bool)
	// StateBytes is the deterministic byte accounting of the strategy's
	// precomputed state (fixed per-element sizes, never live heap
	// measurement — the same contract as graph.MemoryFootprint), so the
	// strategies study can publish state overhead as a CI-stable metric.
	StateBytes() int64
}

// notifyStrategy re-runs the configured strategy's Precompute after a tree
// mutation so precomputed tables (the detour baseline's per-node entries)
// stay current with the tree. Strategies memoize against Tree.Epoch(), so
// the healthy-session hot path pays one interface call and an epoch compare.
// With no strategy configured this is free — the default SMRP path is
// untouched.
func (s *Session) notifyStrategy() {
	if s.cfg.Strategy != nil {
		// A refresh failure must not un-do the mutation that triggered it;
		// whatever the strategy proposes later is checked by sanitizeDetour.
		_ = s.cfg.Strategy.Precompute(s)
	}
}

// dispatchRecover runs one recovery (failures already folded into the
// accumulated mask): along the configured strategy's proposals, or with the
// built-in SMRP reconcile engine when none is set.
func (s *Session) dispatchRecover(fs []failure.Failure) (*HealReport, error) {
	if s.cfg.Strategy != nil {
		return s.recoverProposed(fs)
	}
	return s.reconcile(fs)
}

// recoverProposed is recovery with a strategy: it flushes tree state dead
// under the accumulated mask, then offers every affected member (including
// previously parked ones — a graft can bring an on-tree node back within
// their reach) in ascending-ID passes until a pass makes no progress, and
// finally parks whoever is left. Bookkeeping (SHR repair, Condition-I
// baselines, stale-relay pruning, park/readmit accounting) is the built-in
// reconcile engine's.
func (s *Session) recoverProposed(fs []failure.Failure) (*HealReport, error) {
	h, err := s.beginHeal(fs)
	if err != nil {
		return nil, err
	}
	// A member is pending while its record is empty.
	pending := func(i int) bool { return h.rep.Recovered[i].Detour == nil }
	for progress := true; progress; {
		progress = false
		for i, m := range h.todo {
			if !pending(i) {
				continue
			}
			p, rd, ok := s.tryReconnect(fs, m, h.mask)
			if !ok {
				continue
			}
			if err := s.regraft(h, i, p, p.Reverse(), rd); err != nil {
				return nil, err
			}
			progress = true
		}
	}
	for i, m := range h.todo {
		if pending(i) {
			s.unrecovered(h, m)
		}
	}
	return s.endHeal(h), nil
}

// tryReconnect resolves one member inside recoverProposed: an already
// re-attached relay becomes a member in place; otherwise the first of the
// strategy's proposals that sanitizeDetour accepts is used, and a live
// nearest-survivor search covers the member when none is (counted in
// Stats.StrategyFallbacks when it succeeds; its work, found or not, in
// Stats.FallbackSettled).
func (s *Session) tryReconnect(fs []failure.Failure, m graph.NodeID, mask *graph.Mask) (p graph.Path, rd float64, ok bool) {
	if s.tree.OnTree(m) {
		return graph.Path{m}, 0, true
	}
	s.cfg.Strategy.Propose(fs, m, func(q graph.Path) bool {
		p, rd, ok = s.sanitizeDetour(q, m, mask)
		return ok
	})
	if ok {
		return p, rd, true
	}
	before := s.stats.HealSettled
	p, rd, ok = s.nearestSurvivor(m, mask)
	s.stats.FallbackSettled += s.stats.HealSettled - before
	if ok {
		s.stats.StrategyFallbacks++
	}
	return p, rd, ok
}

// sanitizeDetour validates a strategy-proposed detour for member m against
// the current session state: the path must start at m, traverse only
// existing, unmasked components, and reach a live on-tree node. It is
// trimmed at the FIRST on-tree node encountered (everything beyond already
// rides the tree) and the recovery distance is recomputed as the weight of
// the kept segment, so the reported RD_R is the distance actually grafted —
// the same semantics as the nearest-survivor search.
func (s *Session) sanitizeDetour(p graph.Path, m graph.NodeID, mask *graph.Mask) (graph.Path, float64, bool) {
	if len(p) == 0 || p[0] != m {
		return nil, 0, false
	}
	var rd float64
	for i, n := range p {
		if mask.NodeBlocked(n) {
			return nil, 0, false
		}
		if i > 0 {
			w, ok := s.g.EdgeWeight(p[i-1], n)
			if !ok || mask.EdgeBlocked(p[i-1], n) {
				return nil, 0, false
			}
			rd += w
			if s.tree.OnTree(n) {
				return p[:i+1], rd, true
			}
		}
	}
	return nil, 0, false // never reached a live on-tree node
}
