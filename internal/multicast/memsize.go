package multicast

// Deterministic memory accounting for tree storage, mirroring
// graph.MemoryFootprint: byte counts derive from element counts and fixed
// per-element sizes, never from the live heap, so the same tree reports the
// same number on every run, machine, and worker count. The megascale and
// multigroup studies publish these as CI-stable per-session standing-state
// metrics.
const (
	// bytesPerSlot is a slot's six int32 columns: parent, first child, next
	// sibling, N_R, SHR and baseline.
	bytesPerSlot        = 6 * 4
	bytesPerWord        = 8 // one bitset word
	bytesPerIndexEntry  = 4 // one slotIndex entry, int32
	bytesPerNodeOfEntry = 8 // graph.NodeID
)

// MemoryFootprint returns the deterministic byte accounting of the tree's
// standing state: the six slot columns, the on-tree/member bitsets, and
// (under sparse storage) the slot index and its nodeOf inverse. A dense slot
// costs 24 bytes, one per graph node; a sparse slot costs 32 with its nodeOf
// entry, one per node ever touched, plus its share of the index. The
// reusable iteration scratch and the queue of branches awaiting an SHR
// repair are excluded: work buffers, not standing state.
func (t *Tree) MemoryFootprint() int64 {
	words := int64(len(t.onTree) + len(t.members))
	return int64(len(t.parent))*bytesPerSlot +
		words*bytesPerWord +
		int64(len(t.slots.tab))*bytesPerIndexEntry +
		int64(len(t.nodeOf))*bytesPerNodeOfEntry
}
