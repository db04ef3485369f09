package multicast

import (
	"math/bits"

	"smrp/internal/graph"
)

// bitset is a dense set of NodeIDs backed by 64-bit words. The zero value is
// an empty set; grow before setting bits. NodeIDs are dense (0..V-1), so a
// bitset over a topology costs V/8 bytes and membership tests are a shift
// and a mask — no hashing, no per-entry allocation.
type bitset []uint64

// newBitset returns a bitset able to hold IDs 0..n-1.
func newBitset(n int) bitset {
	return make(bitset, (n+63)>>6)
}

// grownCap returns b extended to hold IDs 0..n-1 with amortized-doubling
// capacity: the sparse tree backend appends slots one at a time.
func (b bitset) grownCap(n int) bitset {
	want := (n + 63) >> 6
	if want <= len(b) {
		return b
	}
	if want <= cap(b) {
		// The backing array was zeroed at make time and words beyond len are
		// never written, so reslicing exposes cleared bits.
		return b[:want]
	}
	newCap := 2 * cap(b)
	if newCap < want {
		newCap = want
	}
	nb := make(bitset, want, newCap)
	copy(nb, b)
	return nb
}

// has reports whether id is in the set. IDs outside the allocated range are
// absent, so callers may probe arbitrary (even negative) NodeIDs safely.
func (b bitset) has(id graph.NodeID) bool {
	if id < 0 {
		return false
	}
	w := int(id) >> 6
	return w < len(b) && (b[w]>>(uint(id)&63))&1 == 1
}

// set adds id to the set (id must be within the allocated range).
func (b bitset) set(id graph.NodeID) { b[int(id)>>6] |= 1 << (uint(id) & 63) }

// clear removes id from the set (id must be within the allocated range).
func (b bitset) clear(id graph.NodeID) { b[int(id)>>6] &^= 1 << (uint(id) & 63) }

// appendIDs appends the set's members to dst in ascending order and returns
// the extended slice.
func (b bitset) appendIDs(dst []graph.NodeID) []graph.NodeID {
	for wi, w := range b {
		base := graph.NodeID(wi << 6)
		for w != 0 {
			dst = append(dst, base+graph.NodeID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// trailingZeros aliases bits.TrailingZeros64 so word-iteration loops in
// tree.go read cleanly.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// clone returns an independent copy of the set.
func (b bitset) clone() bitset {
	nb := make(bitset, len(b))
	copy(nb, b)
	return nb
}
