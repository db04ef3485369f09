package core

import (
	"errors"
	"fmt"

	"smrp/internal/failure"
	"smrp/internal/graph"
)

// RecoveryStrategy is the pluggable restoration seam: it decides how a
// session reconnects members after persistent failures. SMRP's local-detour
// recovery (the paper's protocol) is the default implementation; the
// comparative-testbed baselines — MRC backup routing configurations
// (internal/mrc) and Bhosle–Gonzalez precomputed detours (internal/detour) —
// plug in through Config.Strategy.
//
// A strategy instance is bound to exactly one session: Precompute(s) binds
// and (re)builds any precomputed state, and the session re-invokes it after
// every tree mutation (join, leave, recovery graft), so implementations must
// make it idempotent — memoize against Tree.Epoch() (or a build flag for
// topology-only state) and return fast when nothing changed. Recover and
// StateBytes operate on the bound session.
type RecoveryStrategy interface {
	// Name identifies the strategy in study output and reports.
	Name() string
	// Precompute binds the strategy to s and builds (or incrementally
	// refreshes) its precomputed recovery state. The session calls it at
	// construction and after every tree mutation; it must be idempotent.
	Precompute(s *Session) error
	// Recover restores the bound session after the failure set fs, which
	// has already been folded into the session's accumulated mask (fs is
	// nil on a Reconcile — re-run recovery under the current mask). It
	// must leave the session satisfying the chaos harness's invariant
	// oracle: tree valid, no failed component on tree, every member
	// on-tree XOR parked, and parked members genuinely unreachable.
	Recover(fs []failure.Failure) (*HealReport, error)
	// StateBytes is the deterministic byte accounting of the strategy's
	// precomputed state (fixed per-element sizes, never live heap
	// measurement — the same contract as graph.MemoryFootprint), so the
	// strategies study can publish state overhead as a CI-stable metric.
	StateBytes() int64
}

// smrpStrategy adapts the session's built-in local-detour recovery to the
// RecoveryStrategy interface. It keeps no state of its own: Recover simply
// runs the same reconcile engine a strategy-less session uses, so a session
// configured with NewSMRPStrategy is bit-identical to the default.
type smrpStrategy struct {
	s *Session
}

// NewSMRPStrategy returns the paper's local-detour recovery as an explicit
// strategy. Sessions without a configured strategy use this behavior
// implicitly; configuring it pins the dispatch path without changing any
// output.
func NewSMRPStrategy() RecoveryStrategy { return &smrpStrategy{} }

// Name implements RecoveryStrategy.
func (st *smrpStrategy) Name() string { return "smrp" }

// Precompute binds the session. SMRP precomputes nothing: every detour is
// found reactively by the nearest-survivor search at recovery time.
func (st *smrpStrategy) Precompute(s *Session) error {
	st.s = s
	return nil
}

// Recover implements RecoveryStrategy by delegating to the built-in
// nearest-first reconcile engine.
func (st *smrpStrategy) Recover(fs []failure.Failure) (*HealReport, error) {
	if st.s == nil {
		return nil, fmt.Errorf("core: smrp strategy: %w", ErrUnboundStrategy)
	}
	return st.s.reconcile(fs)
}

// StateBytes implements RecoveryStrategy: SMRP holds no precomputed state.
func (st *smrpStrategy) StateBytes() int64 { return 0 }

// ErrUnboundStrategy is returned when a strategy's Recover runs before
// Precompute bound it to a session.
var ErrUnboundStrategy = errors.New("recovery strategy not bound to a session (Precompute not called)")

// notifyStrategy re-runs the configured strategy's Precompute after a tree
// mutation so precomputed tables (the detour baseline's per-node entries)
// stay current with the tree. Strategies memoize against Tree.Epoch(), so
// the healthy-session hot path pays one interface call and an epoch compare.
// With no strategy configured this is free — the default SMRP path is
// untouched.
func (s *Session) notifyStrategy() {
	if s.cfg.Strategy != nil {
		// A refresh failure must not un-do the mutation that triggered it;
		// the strategy surfaces persistent trouble from its own Recover.
		_ = s.cfg.Strategy.Precompute(s)
	}
}

// dispatchRecover routes one recovery request (failures already folded into
// the accumulated mask) to the configured strategy, or to the built-in SMRP
// reconcile engine when none is set.
func (s *Session) dispatchRecover(fs []failure.Failure) (*HealReport, error) {
	if st := s.cfg.Strategy; st != nil {
		return st.Recover(fs)
	}
	return s.reconcile(fs)
}

// ReconnectFunc is a strategy's per-member recovery answer inside
// RecoverScaffold: propose a residual detour for disconnected member m as a
// path m → … → survivor whose final node is on-tree and unmasked. ok=false
// means the strategy has no (valid) precomputed answer; the scaffold then
// falls back to the live nearest-survivor search and counts the miss in
// Stats.StrategyFallbacks.
type ReconnectFunc func(m graph.NodeID, mask *graph.Mask) (p graph.Path, ok bool)

// RecoverScaffold is the shared recovery skeleton behind the pluggable
// baselines: it flushes tree state dead under the accumulated mask, then
// repeatedly offers every affected member (including previously parked ones
// — a graft can bring an on-tree node back within their reach) to the
// strategy's reconnect function in ascending-ID passes until a pass makes no
// progress, and finally parks whoever is left. Proposed detours are
// sanitized — trimmed at their first live on-tree node and validated against
// the mask — so a stale precomputed entry degrades to a fallback search
// instead of corrupting the tree. Bookkeeping (SHR repair, Condition-I
// baselines, stale-relay pruning, park/readmit accounting) matches the
// built-in reconcile engine exactly.
func (s *Session) RecoverScaffold(fs []failure.Failure, reconnect ReconnectFunc) (*HealReport, error) {
	h, err := s.beginHeal(fs)
	if err != nil {
		return nil, err
	}
	left := h.todo
	for progress := true; progress && len(left) > 0; {
		progress = false
		kept := left[:0]
		for _, m := range left {
			p, rd, ok := s.tryReconnect(m, h.mask, reconnect)
			if !ok {
				kept = append(kept, m)
				continue
			}
			if err := s.regraft(h, m, p, p.Reverse(), rd); err != nil {
				return nil, err
			}
			progress = true
		}
		left = kept
	}
	for _, m := range left {
		s.unrecovered(h, m)
	}
	return s.endHeal(h), nil
}

// tryReconnect resolves one member inside RecoverScaffold: an already
// re-attached relay becomes a member in place; otherwise the strategy's
// proposal is sanitized and used, and a live nearest-survivor search covers
// strategy misses (counted in Stats.StrategyFallbacks when it succeeds where
// the strategy had no valid answer; its work, found or not, in
// Stats.FallbackSettled).
func (s *Session) tryReconnect(m graph.NodeID, mask *graph.Mask, reconnect ReconnectFunc) (graph.Path, float64, bool) {
	if s.tree.OnTree(m) {
		return graph.Path{m}, 0, true
	}
	if p, ok := reconnect(m, mask); ok {
		if sp, rd, valid := s.sanitizeDetour(p, m, mask); valid {
			return sp, rd, true
		}
	}
	before := s.stats.HealSettled
	p, d, ok := s.nearestSurvivor(m, mask)
	s.stats.FallbackSettled += s.stats.HealSettled - before
	if ok {
		s.stats.StrategyFallbacks++
	}
	return p, d, ok
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
