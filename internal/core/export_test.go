package core

import (
	"fmt"

	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// SHR returns the current SHR value of on-tree node n (0 for the source).
func (s *Session) SHR(n graph.NodeID) (int, error) {
	if !s.tree.OnTree(n) {
		return 0, fmt.Errorf("SHR of %d: %w", n, multicast.ErrNotOnTree)
	}
	return s.shrAt(n), nil
}

// Strategy returns the session's active recovery strategy: the configured
// one, or a fresh SMRP (local-detour) strategy bound to this session when
// none was set.
func (s *Session) Strategy() RecoveryStrategy {
	if s.cfg.Strategy != nil {
		return s.cfg.Strategy
	}
	return &smrpStrategy{s: s}
}
