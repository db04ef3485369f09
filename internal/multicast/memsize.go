package multicast

// Deterministic memory accounting for tree storage, mirroring
// graph.MemoryFootprint: byte counts derive from element counts and fixed
// per-element sizes, never from the live heap, so the same tree reports the
// same number on every run, machine, and worker count. The megascale and
// multigroup studies publish these as CI-stable per-session standing-state
// metrics.
const (
	bytesPerParentEntry = 8  // graph.NodeID
	bytesPerKidsHeader  = 24 // slice header of one children list
	bytesPerKidEntry    = 8  // one child NodeID
	bytesPerNREntry     = 4  // int32
	bytesPerSHREntry    = 4  // int32
	bytesPerWord        = 8  // one bitset word
	// bytesPerSlotEntry is the sparse backend's per-slot remap overhead: one
	// map[NodeID]int32 entry (key 8 + value 4 + bucket overhead) plus the
	// 8-byte nodeOf inverse entry.
	bytesPerSlotEntry = 24 + 8
)

// MemoryFootprint returns the deterministic byte accounting of the tree's
// standing state: parent vector, children list headers and elements, the N_R
// and SHR columns, the on-tree/member bitsets, and (under sparse storage) the
// touched-node remap. Dense trees cost O(graph nodes); sparse trees cost
// O(nodes ever touched). The reusable iteration scratch is excluded — it is
// a rebuildable derivative, not tree state.
func (t *Tree) MemoryFootprint() int64 {
	slots := int64(len(t.parent))
	kidElems := int64(t.nNodes - 1)
	if kidElems < 0 {
		kidElems = 0
	}
	words := int64(len(t.onTree) + len(t.members))
	b := slots*(bytesPerParentEntry+bytesPerKidsHeader+bytesPerNREntry+bytesPerSHREntry) +
		kidElems*bytesPerKidEntry +
		words*bytesPerWord
	if t.slotOf != nil {
		b += slots * bytesPerSlotEntry
	}
	return b
}
