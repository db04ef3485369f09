// Package topology generates the network topologies used by the SMRP
// evaluation: Waxman random graphs (the GT-ITM model the paper configures),
// transit–stub hierarchies for the hierarchical recovery architecture, and
// small deterministic fixtures reproducing the paper's worked figures.
//
// All generation is driven by an explicit, seedable RNG so every experiment
// in the repository is reproducible bit-for-bit.
package topology

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**, seeded via splitmix64). It is intentionally independent of
// math/rand so that generated topologies stay stable across Go releases.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n) via unbiased mask rejection. It
// panics if n <= 0, matching math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("topology: Intn called with non-positive n")
	}
	un := uint64(n)
	mask := ^uint64(0) >> leadingZeros(un)
	for {
		candidate := r.Uint64() & mask
		if candidate < un {
			return int(candidate)
		}
	}
}

// leadingZeros counts leading zero bits of x (x != 0 assumed for callers).
func leadingZeros(x uint64) uint {
	if x == 0 {
		return 64
	}
	var n uint
	if x <= 0x00000000FFFFFFFF {
		n += 32
		x <<= 32
	}
	if x <= 0x0000FFFFFFFFFFFF {
		n += 16
		x <<= 16
	}
	if x <= 0x00FFFFFFFFFFFFFF {
		n += 8
		x <<= 8
	}
	if x <= 0x0FFFFFFFFFFFFFFF {
		n += 4
		x <<= 4
	}
	if x <= 0x3FFFFFFFFFFFFFFF {
		n += 2
		x <<= 2
	}
	if x <= 0x7FFFFFFFFFFFFFFF {
		n++
	}
	return n
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		panic("topology: Sample k > n")
	}
	return r.Perm(n)[:k]
}

// Split derives an independent child generator; useful to give each scenario
// its own stream while keeping the parent sequence untouched by consumption
// order changes.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xA5A5A5A5DEADBEEF)
}
