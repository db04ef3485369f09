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
	return s.shr.at(s.tree, n), nil
}
