package topology

import (
	"fmt"
	"math"

	"smrp/internal/graph"
)

// GridWaxmanConfig parameterizes the spatial-grid-bucketed Waxman generator.
// The edge-probability model is the same as WaxmanConfig —
//
//	P(u,v) = Alpha · exp(−d(u,v) / (Beta·L))
//
// — truncated at PMin: pairs whose probability would fall below PMin are
// never probed (their probability is rounded to 0). The truncation induces a
// cutoff distance
//
//	d_cut = Beta·L·ln(Alpha/PMin)
//
// beyond which no edge can form, which is what makes grid bucketing exact:
// with cells of side ≥ d_cut, every pair that could possibly connect lies in
// the same or an adjacent cell, so only those pairs are probed —
// O(N·avg-degree) probes on a constant-density plane instead of O(N²).
//
// Per-pair randomness is keyed, not streamed: the uniform deciding pair
// (u, v) is derived by hashing (pairSeed, u, v) rather than consumed from the
// RNG sequence. Probe order therefore cannot change the outcome, and the
// grid generator is byte-identical to an O(N²) scan of the same truncated
// model (pinned by TestGridWaxmanMatchesPairwise).
type GridWaxmanConfig struct {
	N     int     // number of nodes
	Alpha float64 // edge-density parameter, (0, 1]
	Beta  float64 // long-edge parameter, (0, 1]

	// Side is the side length of the placement square. Zero means 1 (the
	// classic unit square). Megascale flat topologies grow Side with √N to
	// keep node density — and therefore node degree — constant.
	Side float64

	// L is the distance scale in the exponent. Zero means Side·√2 (the
	// placement-square diagonal, matching WaxmanConfig). Megascale configs
	// pin L to a constant while Side grows, so link lengths stay local
	// instead of stretching with the plane.
	L float64

	// PMin is the probability below which a pair is truncated to "never".
	// Zero means DefaultPMin. Must be < Alpha (otherwise no edge could
	// form). Smaller PMin means a larger cutoff radius: more faithful to
	// the untruncated model, more pairs probed.
	PMin float64

	// EnsureConnected applies Connectify post-processing, as in WaxmanConfig.
	EnsureConnected bool
}

// DefaultPMin is the default truncation threshold. At the harness's default
// parameters (α=0.2, β=0.15, unit square) the cutoff it induces is ≈1.13 —
// nearly the whole square, so small-N graphs see essentially no truncation —
// while on a constant-density megascale plane it bounds every node's probe
// neighborhood to a constant-area disc.
const DefaultPMin = 1e-3

// withDefaults returns the config with zero-valued optional fields resolved.
func (c GridWaxmanConfig) withDefaults() GridWaxmanConfig {
	if c.Side == 0 {
		c.Side = 1
	}
	if c.L == 0 {
		c.L = c.Side * math.Sqrt2
	}
	if c.PMin == 0 {
		c.PMin = DefaultPMin
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c GridWaxmanConfig) Validate() error {
	c = c.withDefaults()
	if c.N < 2 || c.N > maxNodes {
		return fmt.Errorf("grid waxman: %w: N = %d, need 2 to %d nodes", ErrBadConfig, c.N, maxNodes)
	}
	if !inRange(c.Alpha, 0, 1) {
		return fmt.Errorf("grid waxman: %w: Alpha = %v out of (0, 1]", ErrBadConfig, c.Alpha)
	}
	if !inRange(c.Beta, 0, 1) {
		return fmt.Errorf("grid waxman: %w: Beta = %v out of (0, 1]", ErrBadConfig, c.Beta)
	}
	if c.Side < 0 || math.IsInf(c.Side, 0) || math.IsNaN(c.Side) {
		return fmt.Errorf("grid waxman: %w: Side = %v", ErrBadConfig, c.Side)
	}
	if c.L < 0 || math.IsInf(c.L, 0) || math.IsNaN(c.L) {
		return fmt.Errorf("grid waxman: %w: L = %v", ErrBadConfig, c.L)
	}
	if !inRange(c.PMin, 0, c.Alpha) || c.PMin == c.Alpha {
		return fmt.Errorf("grid waxman: %w: PMin = %v must be in (0, Alpha)", ErrBadConfig, c.PMin)
	}
	return nil
}

// cutoff returns the truncation distance d_cut, clamped to the placement
// square's diagonal (beyond which no pair exists anyway).
func (c GridWaxmanConfig) cutoff() float64 {
	d := c.Beta * c.L * math.Log(c.Alpha/c.PMin)
	if diag := c.Side * math.Sqrt2; d > diag {
		d = diag
	}
	return d
}

// GridStats reports how much work a grid generation did; the deterministic
// evidence (probe counters, not wall-clock) that bucketing beats the O(N²)
// scan.
type GridStats struct {
	// Probed counts candidate pairs distance-checked. The pairwise scan of
	// the same model probes exactly N(N−1)/2.
	Probed int64
	// Within counts probed pairs inside the cutoff radius (those that got a
	// keyed coin flip).
	Within int64
	// Edges counts pairs whose flip succeeded (before Connectify).
	Edges int64
	// Cells is the grid dimension actually used (Cells × Cells buckets).
	Cells int
}

// mixSplit is the splitmix64 finalizer, used to key per-pair randomness.
func mixSplit(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// pairUniform derives the uniform in [0, 1) deciding pair (u, v) from the
// generation's pair seed. Canonicalizing the endpoints makes it symmetric;
// hashing instead of consuming an RNG stream makes it independent of probe
// order, which is what lets the grid and pairwise generators agree exactly.
func pairUniform(seed uint64, u, v graph.NodeID) float64 {
	if u > v {
		u, v = v, u
	}
	h := mixSplit(seed + uint64(u)*0x9E3779B97F4A7C15)
	h = mixSplit(h ^ uint64(v)*0xD1B54A32D192ED03)
	return float64(h>>11) / (1 << 53)
}

// waxmanAccept decides u < alpha·e^(−x) while dodging math.Exp on the
// overwhelmingly common rejections. The cheap paths are one-sided and exact:
// alpha·e^(−x) ≤ alpha always, and e^(−x) < 1/(1+x+x²/2+x³/6) strictly for
// x > 0 (e^x exceeds its truncated Taylor series), with a margin of x⁴/24
// that dwarfs float rounding once x ≥ 0.01 — so every cheap rejection is one
// the exp comparison would also make, and both generators calling this
// shared helper stay byte-identical.
func waxmanAccept(u, alpha, x float64) bool {
	if u >= alpha {
		return false
	}
	if x >= 0.01 && u*(1+x*(1+x*(0.5+x/6))) >= alpha {
		return false
	}
	return u < alpha*math.Exp(-x)
}

// waxmanBins is the resolution of waxmanDecider's radial rejection table.
const waxmanBins = 64

// waxmanDecider front-loads the edge-acceptance test with a radial table:
// bin k of squared distance stores the model's maximum acceptance
// probability over that bin (its inner-radius probability), so a pair whose
// uniform is at or above the ceiling — the overwhelming majority at
// single-digit average degrees — is rejected with one multiply and one array
// load, no sqrt and no exp. Pairs passing the ceiling fall through to
// waxmanAccept. Both generators build the identical table from the identical
// config, so decisions stay byte-identical between them.
type waxmanDecider struct {
	alpha, scale float64
	binScale     float64 // waxmanBins / cut²
	pHi          [waxmanBins]float64
}

func newWaxmanDecider(alpha, scale, cut2 float64) *waxmanDecider {
	d := &waxmanDecider{alpha: alpha, scale: scale}
	if cut2 > 0 {
		d.binScale = waxmanBins / cut2
	}
	for k := range d.pHi {
		dmin := math.Sqrt(float64(k) * cut2 / waxmanBins)
		d.pHi[k] = alpha * math.Exp(-dmin/scale)
	}
	return d
}

// accept decides pair (u, v) at squared distance d2 ≤ cut². The ceiling
// rejection is exact: within bin k the distance is ≥ the bin's inner radius,
// so the true probability is ≤ pHi[k]; u ≥ pHi[k] therefore implies the full
// comparison would reject too (acceptance is strict <).
func (d *waxmanDecider) accept(u, d2 float64) bool {
	k := int(d2 * d.binScale)
	if k >= waxmanBins {
		k = waxmanBins - 1
	}
	if u >= d.pHi[k] {
		return false
	}
	return waxmanAccept(u, d.alpha, math.Sqrt(d2)/d.scale)
}

// GridWaxman generates a truncated Waxman graph using spatial-grid bucketing:
// O(N·avg-degree) pair probes on a constant-density plane, counted in the
// returned GridStats. See GridWaxmanConfig for the model. The result is
// byte-identical to the O(N²) scan of every pair on the same config and RNG.
func GridWaxman(cfg GridWaxmanConfig, rng *RNG) (*graph.Graph, GridStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, GridStats{}, err
	}
	cfg = cfg.withDefaults()
	b, pairSeed := placeNodes(cfg, rng)
	cut := cfg.cutoff()
	cut2 := cut * cut
	dec := newWaxmanDecider(cfg.Alpha, cfg.Beta*cfg.L, cut2)

	// Bucket nodes into a grid of cells with side ≥ d_cut, so any pair
	// within the cutoff shares a cell or sits in adjacent cells.
	cols := 1
	if cut > 0 {
		if c := int(cfg.Side / cut); c > 1 {
			cols = c
		}
	}
	cellSize := cfg.Side / float64(cols)
	cellOf := func(p graph.Point) (int, int) {
		cx, cy := int(p.X/cellSize), int(p.Y/cellSize)
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= cols {
			cy = cols - 1
		}
		return cx, cy
	}
	// Counting-sort node IDs by cell: start offsets + one flat []NodeID.
	ncells := cols * cols
	counts := make([]int32, ncells+1)
	for n := 0; n < cfg.N; n++ {
		cx, cy := cellOf(b.Pos(graph.NodeID(n)))
		counts[cy*cols+cx+1]++
	}
	for i := 1; i <= ncells; i++ {
		counts[i] += counts[i-1]
	}
	bucketed := make([]graph.NodeID, cfg.N)
	fill := make([]int32, ncells)
	for n := 0; n < cfg.N; n++ {
		cx, cy := cellOf(b.Pos(graph.NodeID(n)))
		c := cy*cols + cx
		bucketed[counts[c]+fill[c]] = graph.NodeID(n)
		fill[c]++
	}
	cellNodes := func(cx, cy int) []graph.NodeID {
		c := cy*cols + cx
		return bucketed[counts[c]:counts[c+1]]
	}

	st := GridStats{Cells: cols}
	// Reserve for the expected yield (avg degree is single-digit at every
	// config we run) so append never copies the edge list mid-probe.
	edges := make([]graph.EdgeID, 0, cfg.N*4)
	// Flat local position copy: the probe loops below are the generator's
	// entire inner-loop budget, and indexing a local slice beats a method
	// call per endpoint at ~10⁷ probes.
	pos := make([]graph.Point, cfg.N)
	for n := range pos {
		pos[n] = b.Pos(graph.NodeID(n))
	}
	var probed, within, accepted int64
	// Canonical half neighborhood: each unordered cell pair within Chebyshev
	// distance 1 is visited exactly once. The probe body is inlined in both
	// loops — at ~10⁷ probes even a closure call is measurable.
	offsets := [4][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	for cy := 0; cy < cols; cy++ {
		for cx := 0; cx < cols; cx++ {
			in := cellNodes(cx, cy)
			for i := 0; i < len(in); i++ {
				u := in[i]
				pu := pos[u]
				for _, v := range in[i+1:] {
					pv := pos[v]
					dx, dy := pu.X-pv.X, pu.Y-pv.Y
					if d2 := dx*dx + dy*dy; d2 <= cut2 {
						within++
						if dec.accept(pairUniform(pairSeed, u, v), d2) {
							accepted++
							edges = append(edges, graph.MakeEdgeID(u, v))
						}
					}
				}
			}
			probed += int64(len(in)) * int64(len(in)-1) / 2
			for _, off := range offsets {
				nx, ny := cx+off[0], cy+off[1]
				if nx < 0 || nx >= cols || ny >= cols {
					continue
				}
				out := cellNodes(nx, ny)
				for _, u := range in {
					pu := pos[u]
					for _, v := range out {
						pv := pos[v]
						dx, dy := pu.X-pv.X, pu.Y-pv.Y
						if d2 := dx*dx + dy*dy; d2 <= cut2 {
							within++
							if dec.accept(pairUniform(pairSeed, u, v), d2) {
								accepted++
								edges = append(edges, graph.MakeEdgeID(u, v))
							}
						}
					}
				}
				probed += int64(len(in)) * int64(len(out))
			}
		}
	}
	st.Probed, st.Within, st.Edges = probed, within, accepted
	if err := insertEdges(b, edges, cfg.EnsureConnected); err != nil {
		return nil, st, err
	}
	return b.Freeze(), st, nil
}

// placeNodes draws node positions from the RNG stream (in node-ID order) and
// then the pair seed, so every generator over the same config and RNG state
// sees identical placement and identical keyed randomness.
func placeNodes(cfg GridWaxmanConfig, rng *RNG) (*graph.Builder, uint64) {
	b := graph.New(cfg.N)
	for i := 0; i < cfg.N; i++ {
		b.SetPos(graph.NodeID(i), graph.Point{
			X: rng.Float64() * cfg.Side,
			Y: rng.Float64() * cfg.Side,
		})
	}
	return b, rng.Uint64()
}
