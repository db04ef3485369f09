package core

import (
	"fmt"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/topology"
)

// computeSHRReference is the pre-dense SHR algorithm kept as an independent
// oracle: it derives subtree member counts itself (bottom-up over Children,
// never touching the tree's incrementally maintained N_R cache) and then
// applies Eq. 2 top-down. The property test below holds both the cached N_R
// values and the tree's incrementally repaired SHR column to exact
// equality against it after every mutation.
func computeSHRReference(t *multicast.Tree) map[graph.NodeID]int {
	// Bottom-up member counts via explicit post-order traversal.
	counts := make(map[graph.NodeID]int, t.NumNodes())
	var walk func(n graph.NodeID) int
	walk = func(n graph.NodeID) int {
		c := 0
		if t.IsMember(n) {
			c = 1
		}
		for _, k := range t.Children(n) {
			c += walk(k)
		}
		counts[n] = c
		return c
	}
	walk(t.Source())

	// Top-down SHR propagation: SHR(R) = SHR(R_u) + N_R, SHR(S) = 0.
	shr := make(map[graph.NodeID]int, t.NumNodes())
	shr[t.Source()] = 0
	stack := []graph.NodeID{t.Source()}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range t.Children(n) {
			shr[k] = shr[n] + counts[k]
			stack = append(stack, k)
		}
	}
	return shr
}

// checkSourceAloneAtZero asserts what lets a selection stop at the source
// (selectBySweep): of the nodes of a tree — shr is its table, from the
// definitions — the source alone has SHR 0. Eq. 2 adds N_R at every other, and
// a node that is neither a member nor above one does not stay on the tree.
func checkSourceAloneAtZero(t *testing.T, what string, src graph.NodeID, shr map[graph.NodeID]int) {
	t.Helper()
	for n, v := range shr {
		if (v == 0) != (n == src) {
			t.Fatalf("%s: SHR[%d] = %d with the source at %d: the source is to be the one node at 0", what, n, v, src)
		}
	}
}

// checkSHRState asserts, after an arbitrary session mutation, that
//   - the tree's structural invariants and its cached N_R values hold
//     (Tree.Validate recounts N_R from scratch),
//   - the source is the only node with SHR 0,
//   - ComputeSHR matches the independent reference oracle,
//   - the session left no SHR repair pending, and
//   - the tree's incrementally repaired SHR column matches too.
func checkSHRState(t *testing.T, s *Session, op string) {
	t.Helper()
	tr := s.Tree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: tree invalid: %v", op, err)
	}
	ref := computeSHRReference(tr)
	checkSourceAloneAtZero(t, op, tr.Source(), ref)
	got := ComputeSHR(tr)
	if len(got) != len(ref) {
		t.Fatalf("%s: ComputeSHR has %d entries, reference %d", op, len(got), len(ref))
	}
	for n, want := range ref {
		if got[n] != want {
			t.Fatalf("%s: ComputeSHR[%d] = %d, reference %d", op, n, got[n], want)
		}
	}
	if w := tr.RepairSHR(); w != 0 {
		t.Fatalf("%s: the session left %d SHR writes unrepaired", op, w)
	}
	for n, want := range ref {
		if got := tr.SHR(n); got != want {
			t.Fatalf("%s: incremental SHR[%d] = %d, reference %d", op, n, got, want)
		}
	}
}

// TestIncrementalSHREquivalence drives random membership churn, reshaping,
// and failure healing across many Waxman topologies and asserts after every
// single operation that the incrementally maintained state (cached N_R,
// dirty-subtree SHR repairs) is indistinguishable from a from-scratch
// recompute. This is the correctness contract of the dense-tree refactor: no
// sequence of O(depth) incremental updates may ever drift from Eq. 2.
func TestIncrementalSHREquivalence(t *testing.T) {
	topologies := 50
	if testing.Short() {
		topologies = 12
	}
	for ti := 0; ti < topologies; ti++ {
		ti := ti
		t.Run(fmt.Sprintf("topo%02d", ti), func(t *testing.T) {
			rng := topology.NewRNG(9000 + uint64(ti))
			n := 24 + rng.Intn(57) // 24..80 nodes
			g, err := topology.Waxman(topology.WaxmanConfig{
				N:               n,
				Alpha:           0.15 + 0.2*rng.Float64(),
				Beta:            topology.DefaultBeta,
				EnsureConnected: true,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			src := graph.NodeID(rng.Intn(n))
			s, err := NewSession(g, src, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkSHRState(t, s, "init")

			// Random join/leave/reshape churn.
			ops := 30 + rng.Intn(31)
			for i := 0; i < ops; i++ {
				switch r := rng.Intn(10); {
				case r < 6: // join a random off-tree node
					v := graph.NodeID(rng.Intn(n))
					if s.Tree().OnTree(v) {
						continue
					}
					if _, err := s.Join(v); err != nil {
						t.Fatalf("join %d: %v", v, err)
					}
					checkSHRState(t, s, fmt.Sprintf("join %d", v))
				case r < 8: // leave a random member
					ms := s.Tree().Members()
					if len(ms) == 0 {
						continue
					}
					m := ms[rng.Intn(len(ms))]
					if m == src {
						continue
					}
					if err := s.Leave(m); err != nil {
						t.Fatalf("leave %d: %v", m, err)
					}
					checkSHRState(t, s, fmt.Sprintf("leave %d", m))
				default: // Condition-II reshape pass (exercises Reroute)
					s.ReshapeAll()
					checkSHRState(t, s, "reshape")
				}
			}

			// Heal a random failure (exercises the flush's batched
			// branch repair, regraft repairs, and PruneStale).
			if s.Tree().NumMembers() > 1 {
				var f failure.Failure
				if rng.Intn(2) == 0 {
					es := s.Tree().Edges()
					e := es[rng.Intn(len(es))]
					f = failure.LinkDown(e.A, e.B)
				} else {
					nodes := s.Tree().Nodes()
					v := nodes[rng.Intn(len(nodes))]
					if v == src {
						return
					}
					f = failure.NodeDown(v)
				}
				if _, err := s.Recover(f); err != nil {
					t.Fatalf("heal %v: %v", f, err)
				}
				checkSHRState(t, s, fmt.Sprintf("heal %v", f))

				// Post-heal churn: leaves still work on the degraded tree.
				for _, m := range s.Tree().Members() {
					if m == src || rng.Intn(3) != 0 {
						continue
					}
					if err := s.Leave(m); err != nil {
						t.Fatalf("post-heal leave %d: %v", m, err)
					}
					checkSHRState(t, s, fmt.Sprintf("post-heal leave %d", m))
				}
			}
		})
	}
}
