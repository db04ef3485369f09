package protect

import (
	"fmt"

	"smrp/internal/graph"
)

// Leave releases m's channels.
func (s *DependableSession) Leave(m graph.NodeID) error {
	if _, ok := s.conns[m]; !ok {
		return fmt.Errorf("protect: %d is not joined", m)
	}
	delete(s.conns, m)
	return nil
}

// Cost returns the combined standing resource usage of both trees — the
// price of preplanned protection.
func (rt *RedundantTrees) Cost() (float64, error) {
	r, err := rt.Red.Cost()
	if err != nil {
		return 0, err
	}
	b, err := rt.Blue.Cost()
	if err != nil {
		return 0, err
	}
	return r + b, nil
}

// Validate checks both trees' structural invariants plus the disjointness
// property for every member: red and blue paths share no interior vertex.
func (rt *RedundantTrees) Validate() error {
	if err := rt.Red.Validate(); err != nil {
		return fmt.Errorf("protect: red: %w", err)
	}
	if err := rt.Blue.Validate(); err != nil {
		return fmt.Errorf("protect: blue: %w", err)
	}
	for _, m := range rt.Red.Members() {
		rp, err := rt.Red.PathToSource(m)
		if err != nil {
			return err
		}
		bp, err := rt.Blue.PathToSource(m)
		if err != nil {
			return err
		}
		interior := make(map[graph.NodeID]bool)
		for _, n := range rp[1 : len(rp)-1] {
			interior[n] = true
		}
		for _, n := range bp[1 : len(bp)-1] {
			if interior[n] {
				return fmt.Errorf("protect: member %d: paths share interior vertex %d", m, n)
			}
		}
	}
	return nil
}
