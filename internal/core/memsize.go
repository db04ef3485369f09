package core

// Deterministic memory accounting for session standing state, in the style
// of graph.MemoryFootprint and Tree.MemoryFootprint: element counts times
// fixed per-element sizes, never live heap, so the multigroup study's
// per-group standing-bytes column is CI-stable across runs, machines, and
// worker counts.
const (
	// bytesPerBaselineEntry is one lastUpSHR entry (NodeID key + int value
	// + bucket overhead) — the Condition-I baseline kept per member.
	bytesPerBaselineEntry = 32
	// bytesPerParkedEntry is one parked-member entry.
	bytesPerParkedEntry = 16
)

// MemoryFootprint returns the deterministic byte accounting of the
// session's standing state: the tree (dense arrays or the sparse
// touched-node remap, SHR column included), the per-member Condition-I
// baselines, and parked members (reshape checks work in a pooled arena and
// leave nothing standing). With sparse tree storage every term is
// O(|tree| + |members|); with dense storage the tree term is O(topology) —
// the ratio between the two is what the megascale CI gate pins.
func (s *Session) MemoryFootprint() int64 {
	return s.tree.MemoryFootprint() +
		int64(len(s.lastUpSHR))*bytesPerBaselineEntry +
		int64(len(s.parked))*bytesPerParkedEntry
}
