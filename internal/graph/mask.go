package graph

import (
	"math/bits"
	"slices"
)

// Mask excludes nodes and/or edges from traversal, expressing component
// failures or deliberate avoidance without mutating the graph. A nil *Mask
// excludes nothing.
//
// The mask maintains its Fingerprint incrementally (XOR is self-inverse and
// commutative), so a fingerprint query is O(1) regardless of how many
// elements are blocked.
//
// Node blocks are a dense bitset over node IDs: on the Dijkstra and sweep
// relaxation loops a probe is a shift+and on a contiguous word array rather
// than a hash lookup. The words are allocated on the first BlockNode and grow
// to cover the largest blocked ID, so a mask that blocks only links holds none.
// Node IDs are dense and non-negative by package contract: blocking a
// negative ID is a no-op, and the caller checks an ID against its graph before
// blocking it (the words are sized by the ID, see failure.Check).
//
// Edge blocks stay map-backed: NewMask has no graph to index edges by, the
// edge universe is quadratic, and edge blocks are rare (most failure masks
// block nodes or a handful of links). What keeps the map off the relaxation
// loops is the endpoint index beside it: the number of directly blocked edges
// at each node, so a loop over u's arcs asks once whether u touches a blocked
// edge at all and hashes only in the rows that do — two rows for one cut link.
type Mask struct {
	// bits is the blocked-node bitset; nil until a node is blocked (or the
	// mask is pre-sized by NewMaskWithCapacity).
	bits []uint64
	// nnodes counts blocked nodes.
	nnodes int

	edges map[EdgeID]bool
	// ends[n] counts the directly blocked edges with n as an endpoint (nodes
	// past its length touch none). Nil until the first BlockEdge, so a mask
	// that only ever blocks nodes allocates nothing for it.
	ends []int32
	// fp is the running XOR of per-element mixes; count the number of
	// blocked elements folded into it.
	fp    uint64
	count int
}

// NewMask returns an empty mask. Its node words are allocated on the first
// BlockNode.
func NewMask() *Mask {
	return &Mask{edges: make(map[EdgeID]bool)}
}

// NewMaskWithCapacity returns an empty mask whose node words are pre-sized
// for node IDs 0..n-1 (they grow if a larger ID is blocked later), so blocking
// node after node never reallocates: the mrc and detour baselines pre-size
// their per-configuration and per-node masks this way. The first blocked edge
// sizes the edge-end counters as far, so edge after edge never does either.
func NewMaskWithCapacity(n int) *Mask {
	if n < 1 {
		n = 1
	}
	return &Mask{bits: make([]uint64, (n+63)/64), edges: make(map[EdgeID]bool)}
}

// nodeMix is the fingerprint contribution of a blocked node.
func nodeMix(n NodeID) uint64 {
	return mix64(uint64(n) ^ 0xA5A5_0000_0000_0001)
}

// edgeMix is the fingerprint contribution of a blocked edge.
func edgeMix(e EdgeID) uint64 {
	return mix64(uint64(uint32(e.A))<<32 | uint64(uint32(e.B)))
}

// nodeBlocked is the bitset probe behind every node-block query; m must be
// non-nil. Negative IDs are never blocked (uint conversion turns them into
// out-of-range words).
func (m *Mask) nodeBlocked(n NodeID) bool {
	w := uint(n) >> 6
	return w < uint(len(m.bits)) && m.bits[w]>>(uint(n)&63)&1 != 0
}

// ensureBits grows the bitset to cover node n (amortized doubling).
func (m *Mask) ensureBits(n NodeID) {
	w := int(uint(n)>>6) + 1
	if w <= len(m.bits) {
		return
	}
	if c := 2 * len(m.bits); w < c {
		w = c
	}
	nb := make([]uint64, w)
	copy(nb, m.bits)
	m.bits = nb
}

// BlockNode marks node n as unusable and returns the mask for chaining.
// Blocking a negative ID is a no-op; n must otherwise be a node of the graph
// the mask is used with, because the bitset grows to cover it.
func (m *Mask) BlockNode(n NodeID) *Mask {
	if n < 0 || m.nodeBlocked(n) {
		return m
	}
	m.ensureBits(n)
	m.bits[uint(n)>>6] |= 1 << (uint(n) & 63)
	m.nnodes++
	m.fp ^= nodeMix(n)
	m.count++
	return m
}

// BlockNodes marks every listed node as unusable and returns the mask for
// chaining — the bulk form of BlockNode used by hot callers (reshaping blocks
// an entire subtree per evaluation).
func (m *Mask) BlockNodes(ids ...NodeID) *Mask {
	for _, n := range ids {
		m.BlockNode(n)
	}
	return m
}

// UnblockNode removes n from the blocked set and returns the mask for
// chaining. Unblocking a node that is not blocked is a no-op. Because the
// fingerprint is an XOR of per-element mixes (self-inverse), unblocking is
// O(1) — which is what lets hot paths reuse one scratch mask with
// block/unblock pairs instead of cloning per probe.
func (m *Mask) UnblockNode(n NodeID) *Mask {
	if !m.nodeBlocked(n) {
		return m
	}
	m.bits[uint(n)>>6] &^= 1 << (uint(n) & 63)
	m.nnodes--
	m.fp ^= nodeMix(n)
	m.count--
	return m
}

// BlockEdge marks the undirected edge (u, v) as unusable and returns the mask
// for chaining. Like BlockNode, it ignores negative IDs and otherwise expects
// nodes of the graph: the endpoint index grows to cover both.
func (m *Mask) BlockEdge(u, v NodeID) *Mask {
	e := MakeEdgeID(u, v)
	if e.A < 0 || m.edges[e] {
		return m
	}
	m.edges[e] = true
	if int(e.B) >= len(m.ends) { // A < B: covers both endpoints; at least as far as the node words
		m.ends = append(m.ends, make([]int32, max(int(e.B)+1, 64*len(m.bits))-len(m.ends))...)
	}
	m.ends[e.A]++
	m.ends[e.B]++
	m.fp ^= edgeMix(e)
	m.count++
	return m
}

// UnblockEdge removes the undirected edge (u, v) from the blocked set and
// returns the mask for chaining; a no-op when the edge is not blocked.
// O(1), like UnblockNode.
func (m *Mask) UnblockEdge(u, v NodeID) *Mask {
	e := MakeEdgeID(u, v)
	if m.edges[e] {
		delete(m.edges, e)
		m.ends[e.A]--
		m.ends[e.B]--
		m.fp ^= edgeMix(e)
		m.count--
	}
	return m
}

// IsEmpty reports whether the mask blocks nothing. A nil mask is empty.
func (m *Mask) IsEmpty() bool { return m == nil || m.count == 0 }

// hasNodeBlocks reports whether any node is blocked (loop-hoisted fast path
// for the sweep engine).
func (m *Mask) hasNodeBlocks() bool { return m != nil && m.nnodes > 0 }

// hasEdgeBlocks reports whether any edge is blocked directly (blocked
// endpoints are covered by hasNodeBlocks).
func (m *Mask) hasEdgeBlocks() bool { return m != nil && len(m.edges) > 0 }

// touchesBlockedEdge reports whether some directly blocked edge has n as an
// endpoint; m must be non-nil. The arc loops ask it once per row and probe
// the edge map only in the rows it admits.
func (m *Mask) touchesBlockedEdge(n NodeID) bool {
	return uint(n) < uint(len(m.ends)) && m.ends[n] != 0
}

// NodeBlocked reports whether node n is excluded. A nil mask blocks nothing.
func (m *Mask) NodeBlocked(n NodeID) bool {
	return m != nil && m.nodeBlocked(n)
}

// EdgeBlocked reports whether edge (u, v) is excluded, either directly or via
// a blocked endpoint. A nil mask blocks nothing.
func (m *Mask) EdgeBlocked(u, v NodeID) bool {
	if m == nil {
		return false
	}
	return m.nodeBlocked(u) || m.nodeBlocked(v) ||
		(m.touchesBlockedEdge(u) && m.touchesBlockedEdge(v) && m.edges[MakeEdgeID(u, v)])
}

// eachBlockedNode invokes fn for every blocked node in ascending ID order.
func (m *Mask) eachBlockedNode(fn func(NodeID)) {
	for w, word := range m.bits {
		for word != 0 {
			fn(NodeID(w<<6 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// Each invokes fn for every blocked element: the nodes in ascending ID order,
// then the edges blocked directly (an edge dead only through a blocked
// endpoint is not listed on its own) in unspecified order. A nil mask has no
// elements.
func (m *Mask) Each(fn func(MaskElem)) {
	if m == nil {
		return
	}
	if m.nnodes > 0 { // a pre-sized mask without node blocks has words but nothing in them
		m.eachBlockedNode(func(n NodeID) { fn(MaskElem{Node: n}) })
	}
	for e := range m.edges {
		fn(MaskElem{Edge: e, IsEdge: true})
	}
}

// Clone returns a deep copy of the mask; cloning a nil mask yields an empty
// one. The node words are one array copy, made only when a node is blocked,
// so the clone of a link-only failure mask holds no node words.
func (m *Mask) Clone() *Mask {
	if m == nil {
		return NewMask()
	}
	c := &Mask{
		nnodes: m.nnodes,
		edges:  make(map[EdgeID]bool, len(m.edges)),
		fp:     m.fp,
		count:  m.count,
	}
	if m.nnodes > 0 {
		c.bits = slices.Clone(m.bits)
	}
	if len(m.edges) > 0 {
		c.ends = slices.Clone(m.ends)
		for e, v := range m.edges {
			if v {
				c.edges[e] = true
			}
		}
	}
	return c
}

// MaskElem is one blocked element of a Mask (see Each): a node when IsEdge is
// false, an undirected edge otherwise.
type MaskElem struct {
	Node   NodeID // valid when !IsEdge
	Edge   EdgeID // valid when IsEdge
	IsEdge bool
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality 64-bit bit mixer
// used for mask fingerprints and cache sharding.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Fingerprint returns a deterministic 64-bit digest of the blocked set.
// Blocked elements are combined commutatively (XOR of per-element mixes,
// maintained incrementally as elements are blocked), so the fingerprint is
// independent of insertion order and costs O(1) to query. A nil or empty mask
// fingerprints to 0; the per-element mixing keeps accidental collisions
// between different masks vanishingly unlikely.
func (m *Mask) Fingerprint() uint64 {
	if m == nil || m.count == 0 {
		return 0
	}
	// Fold the element count in so masks whose XORs cancel still differ.
	return mix64(m.fp ^ uint64(m.count)<<1 ^ 0x9E3779B97F4A7C15)
}

// Union returns a new mask blocking everything blocked by m or other.
func (m *Mask) Union(other *Mask) *Mask {
	c := m.Clone()
	if other == nil {
		return c
	}
	other.eachBlockedNode(func(n NodeID) { c.BlockNode(n) })
	for e, v := range other.edges {
		if v {
			c.BlockEdge(e.A, e.B)
		}
	}
	return c
}
