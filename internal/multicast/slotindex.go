package multicast

import (
	"math/bits"

	"smrp/internal/graph"
)

// slotIndex is the sparse backend's NodeID → slot map: an open-addressed
// table of slot+1 entries (0 is empty), probed linearly from a multiplicative
// hash of the NodeID. Keys are not stored; an entry's node is read back
// through the tree's nodeOf. The table doubles, rehashing from nodeOf, before
// it would pass half full, and has no delete path because slots are never
// freed. A nil table is the dense backend.
type slotIndex struct {
	tab   []int32
	shift uint // 64 - log2(len(tab)): home keeps the product's top bits
}

// minSlotTable is the table a sparse tree starts with.
const minSlotTable = 8

func (x *slotIndex) home(n graph.NodeID) uint {
	return uint(uint64(n) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns n's slot, or -1 when n has none. Any NodeID may be asked,
// Invalid and IDs beyond the graph included. It stays out of line so that
// Tree.idx, which calls it, inlines (DESIGN.md §17.2).
//
//go:noinline
func (x *slotIndex) find(n graph.NodeID, nodeOf []graph.NodeID) int32 {
	for i := x.home(n); ; i = (i + 1) & uint(len(x.tab)-1) {
		if e := x.tab[i]; e == 0 || nodeOf[e-1] == n {
			return e - 1
		}
	}
}

// add indexes the newest slot, len(nodeOf)-1, whose node has none yet.
func (x *slotIndex) add(nodeOf []graph.NodeID) {
	if 2*len(nodeOf) <= len(x.tab) {
		x.put(len(nodeOf)-1, nodeOf)
	} else {
		x.resize(2*len(x.tab), nodeOf)
	}
}

// resize replaces the table with one of size entries, a power of two,
// holding every slot of nodeOf.
func (x *slotIndex) resize(size int, nodeOf []graph.NodeID) {
	x.tab = make([]int32, size)
	x.shift = uint(65 - bits.Len(uint(size)))
	for i := range nodeOf {
		x.put(i, nodeOf)
	}
}

// put stores slot i at the first empty entry from its node's home.
func (x *slotIndex) put(i int, nodeOf []graph.NodeID) {
	j := x.home(nodeOf[i])
	for x.tab[j] != 0 {
		j = (j + 1) & uint(len(x.tab)-1)
	}
	x.tab[j] = int32(i + 1)
}
