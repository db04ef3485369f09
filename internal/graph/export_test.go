package graph

// AddNode appends a node at position p and returns its ID, so tests can
// grow a graph between edges.
func (b *Builder) AddNode(p Point) NodeID {
	b.pos = append(b.pos, p)
	return NodeID(len(b.pos) - 1)
}

// Parent returns n's predecessor on its shortest path (Invalid at the source
// or when unreached).
func (s *Sweep) Parent(n NodeID) NodeID {
	if !s.Reached(n) {
		return Invalid
	}
	return s.parent[n]
}

// mustFreeze freezes a build whose edges are known to be distinct, and
// panics if Freeze refuses it.
func mustFreeze(b *Builder) *Graph {
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}

// DiffAgainst is the SPF cache's diff of m against the elements of prev (nil
// for the healthy tree's empty list), as a miss computes it against a cached
// entry.
func (m *Mask) DiffAgainst(prev *Mask, limit int) (added, removed []MaskElem, ok bool) {
	var elems []MaskElem
	if prev != nil {
		elems = prev.sortedElems()
	}
	return m.appendDiff(nil, nil, elems, limit)
}

// ArcsScanned reports how many arcs the last run's relaxation loop looked at.
func (s *Sweep) ArcsScanned() int { return s.arcsScanned }

// SetEpoch sets the sweep's validity epoch, so that a test can have the next
// run wrap it.
func (s *Sweep) SetEpoch(e uint32) { s.epoch = e }

// RaceEnabled reports whether the tests run under the race detector.
const RaceEnabled = raceEnabled

// Bucketed reports whether g has a full run's bucket width, which the
// directed sweep's bucketed pass needs (setStep).
func (g *Graph) Bucketed() bool { return g.stepInv > 0 }

// TiedPlane, WaxmanDomain and RandomSweepMask are the sweep tests' input
// generators.
var (
	TiedPlane       = tiedPlane
	WaxmanDomain    = waxmanDomain
	RandomSweepMask = randomSweepMask
)
