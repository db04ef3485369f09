package core

import (
	"reflect"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// proposal is one Propose call a fakeStrategy saw: the batch, the member,
// and how many paths it got through before one was accepted (or it ran out).
type proposal struct {
	fs      []failure.Failure
	m       graph.NodeID
	offered int
}

// fakeStrategy records what its session hands it and proposes a fixed list
// of paths per member, in order, until the session accepts one.
type fakeStrategy struct {
	bound     *Session
	binds     int
	paths     map[graph.NodeID][]graph.Path
	proposals []proposal
}

func (f *fakeStrategy) Precompute(s *Session) error {
	f.bound = s
	f.binds++
	return nil
}

func (f *fakeStrategy) Propose(fs []failure.Failure, m graph.NodeID, offer func(graph.Path) bool) {
	p := proposal{fs: fs, m: m}
	for _, q := range f.paths[m] {
		p.offered++
		if offer(q) {
			break
		}
	}
	f.proposals = append(f.proposals, p)
}

func (f *fakeStrategy) StateBytes() int64 { return 0 }

// TestStrategyDispatch verifies the seam's plumbing: NewSession binds the
// configured strategy and every tree mutation re-invokes its Precompute;
// Recover and Reconcile ask it for each cut member's detours with the failure
// batch (nil for a Reconcile); the session rejects a proposal that does not
// start at the member or crosses a failure, grafts the first that holds
// (trimmed at its first on-tree node) and asks for no more; and a member none
// of whose proposals holds is covered by the nearest-survivor search and
// counted as a fallback.
func TestStrategyDispatch(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeStrategy{paths: map[graph.NodeID][]graph.Path{4: {
		{3, 4},       // not from the member
		{4, 1, 0},    // over the cut link A–D
		{4, 2, 0, 1}, // D→B→S, trimmed at S
		{4, 3, 1},    // never offered
	}}}
	cfg := DefaultConfig()
	cfg.Strategy = fake
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fake.bound != s || fake.binds != 1 {
		t.Fatalf("after NewSession: bound to %p (session %p), %d binds; want the session, 1", fake.bound, s, fake.binds)
	}
	if _, err := s.Join(4); err != nil { // S→A→D
		t.Fatal(err)
	}
	if fake.binds != 2 {
		t.Errorf("after a join: %d binds, want 2", fake.binds)
	}

	cut := failure.LinkDown(1, 4)
	rep, err := s.Recover(cut)
	if err != nil {
		t.Fatal(err)
	}
	if want := []proposal{{fs: []failure.Failure{cut}, m: 4, offered: 3}}; !reflect.DeepEqual(fake.proposals, want) {
		t.Fatalf("strategy saw %+v, want %+v", fake.proposals, want)
	}
	if got, want := recoveryOf(rep, 4), (Recovery{4, graph.Path{4, 2, 0}, 4}); !reflect.DeepEqual(got, want) {
		t.Errorf("member 4 recovered along %v at RD %v, want %v at 4", got.Detour, got.RD, want.Detour)
	}
	if fake.binds != 3 {
		t.Errorf("after a recovery: %d binds, want 3", fake.binds)
	}
	if st := s.Stats(); st.StrategyFallbacks != 0 || st.HealSettled != 0 {
		t.Errorf("fallbacks %d, heal settled %d; want 0, 0 for an accepted proposal", st.StrategyFallbacks, st.HealSettled)
	}

	// B fails while recovery is suspended; the Reconcile that follows finds
	// the fake without an answer for D, and the live search takes it round
	// by C and A (2 + 2 + 1).
	fake.paths = nil
	s.ApplyFailure(failure.NodeDown(2))
	rep, err = s.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if want := (proposal{m: 4}); len(fake.proposals) != 2 || !reflect.DeepEqual(fake.proposals[1], want) {
		t.Fatalf("Reconcile reached the strategy with %+v, want %+v", fake.proposals[1:], want)
	}
	if got, want := recoveryOf(rep, 4), (Recovery{4, graph.Path{4, 3, 1, 0}, 5}); !reflect.DeepEqual(got, want) {
		t.Errorf("member 4 recovered along %v at RD %v, want %v at 5", got.Detour, got.RD, want.Detour)
	}
	if st := s.Stats(); st.StrategyFallbacks != 1 || st.FallbackSettled == 0 || st.FallbackSettled != st.HealSettled {
		t.Errorf("fallbacks %d settling %d of %d; want 1 settling all of a non-zero count", st.StrategyFallbacks, st.FallbackSettled, st.HealSettled)
	}
}
